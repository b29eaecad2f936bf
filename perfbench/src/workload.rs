//! The four workloads, their per-episode spec lines, and the correctness
//! checks every episode's report must pass.

use byzclock_core::scenario::RunReport;
use byzclock_mcheck::CheckReport;
use byzclock_sim::derive_seed;

/// In-beat thread count of every simulation the benchmark builds. One
/// thread keeps the load to a single core and makes the traced run's
/// span nesting exact.
pub const STEP_THREADS: usize = 1;

/// Every simulated run times at least this many beats, so the reported
/// p90 has at least ten samples beyond it (one capped check already
/// expands several hundred states).
pub const MIN_SAMPLES: usize = 110;

/// State cap of the `mcheck-bd2` bounded search, and the exact explored
/// state and edge counts the engine must reach at that cap.
pub const MCHECK_CAP: usize = 40_000;
pub const MCHECK_STATES: usize = 40_288;
pub const MCHECK_EDGES: u64 = 765_248;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoinNoise,
    CommitteeSync,
    BdStorm,
    McheckBd2,
}

impl Workload {
    pub fn from_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "coin-noise" => Workload::CoinNoise,
            "committee-sync" => Workload::CommitteeSync,
            "bd-storm" => Workload::BdStorm,
            "mcheck-bd2" => Workload::McheckBd2,
            other => return Err(format!("unknown workload `{other}`")),
        })
    }

    /// The scenario spec of episode `episode` of a run seeded `seed`
    /// (`None` for the model checker, which has no spec).
    pub fn spec_line(self, seed: u64, episode: u64) -> Option<String> {
        let s = derive_seed(seed, episode);
        Some(match self {
            Workload::CoinNoise => format!(
                "coin-stream n=22 f=7 coin=ticket adv=coin-noise faults=none wire=packed-bytes \
                 seed={s} budget=24"
            ),
            Workload::CommitteeSync => format!(
                "clock-sync n=128 f=42 k=8 coin=ticket committee=19 adv=split-vote \
                 faults=corrupt-start seed={s} budget=40"
            ),
            Workload::BdStorm => format!(
                "bd-clock n=64 f=21 k=8 coin=oracle adv=silent \
                 faults=corrupt-start+phantoms@100:2000+scramble@200 delay=2 seed={s} budget=400"
            ),
            Workload::McheckBd2 => return None,
        })
    }

    /// Minimum episodes per run: enough independent seeds that the
    /// run's mean convergence time is steady from run to run.
    pub fn min_episodes(self) -> usize {
        match self {
            Workload::CoinNoise => 1,
            Workload::CommitteeSync => 6,
            Workload::BdStorm => 60,
            Workload::McheckBd2 => 5,
        }
    }
}

/// Correctness-check tally of one process.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Checks one episode's report and returns its convergence time in
/// beats: from the last fault to stable sync for the clock workloads,
/// the coin pipeline's warm-up for the coin stream.
pub fn check_report(w: Workload, r: &RunReport, checks: &mut Checks) -> f64 {
    let spec = &r.spec;
    match w {
        Workload::CoinNoise => {
            // Correct nodes output the same coin on every beat after the
            // pipeline warm-up.
            let agree = r.extra("agreement_rate").unwrap_or(0.0);
            let measured = r.extra("measured_beats").unwrap_or(0.0);
            checks.check(agree == 1.0 && measured > 0.0, || {
                format!("coin outputs disagree (agreement_rate={agree}): {spec}")
            });
            r.beats as f64 - measured
        }
        Workload::CommitteeSync | Workload::BdStorm => {
            let Some(at) = r.converged_at else {
                checks.check(false, || format!("no stable sync within the run: {spec}"));
                return 0.0;
            };
            // Closure: synced and incrementing on every beat from
            // convergence to the end of the run.
            checks.check(r.final_streak == r.beats - at, || {
                format!(
                    "sync lost after convergence at beat {at} (streak {} of {}): {spec}",
                    r.final_streak,
                    r.beats - at
                )
            });
            (at - r.measured_from) as f64
        }
        Workload::McheckBd2 => unreachable!("the checker has no RunReport"),
    }
}

/// The `mcheck-bd2` checks: no violation, a capped (incomplete) search,
/// and the exact explored-state and edge counts pinned for the cap.
pub fn check_checker(report: &CheckReport, checks: &mut Checks) {
    let (states, edges) = (report.states, report.edges);
    checks.check(report.violation.is_none(), || {
        format!(
            "checker violation: {:?}",
            report.violation.as_ref().map(|v| &v.detail)
        )
    });
    checks.check(
        !report.complete && states == MCHECK_STATES && edges == MCHECK_EDGES,
        || {
            format!(
                "capped search explored states={states} edges={edges} complete={}, \
                 pinned states={MCHECK_STATES} edges={MCHECK_EDGES} at cap {MCHECK_CAP}",
                report.complete
            )
        },
    );
}
