//! The untraced timed run behind the end-to-end metrics.
//!
//! Simulated workloads go through the public scenario API only:
//! `ScenarioSpec::parse` + `ProtocolRegistry::start`, then `drive_exact`
//! over the started run, with one timer around each `ScenarioRun::step()`.
//! Set-up (parse + start) is timed on builds of its own. The model checker
//! runs `engine::check` on a fresh `BdModel` per check, timed per expanded
//! state and reported per transition.

use crate::json::Obj;
use crate::model::TimedModel;
use crate::workload::{check_checker, check_report, Checks, Workload, MCHECK_CAP, MIN_SAMPLES};
use crate::Args;
use byzclock::scenario::{default_registry, ScenarioRun, ScenarioSpec};
use byzclock_core::scenario::{drive_exact, DEFAULT_SYNC_WINDOW};
use byzclock_mcheck::{check, BdModel, Model};
use byzclock_sim::TrafficStats;
use std::time::Instant;

/// Set-ups timed per run; the reported `setup_s` is their median.
const SETUP_SAMPLES: usize = 51;

pub fn run(args: &Args) -> Result<String, String> {
    match args.workload {
        Workload::McheckBd2 => measure_checker(args),
        w => measure_scenario(w, args),
    }
}

/// A started run whose `step()` is timed; everything else forwards.
struct Timed<'a> {
    inner: Box<dyn ScenarioRun>,
    samples: &'a mut Vec<u64>,
}

impl ScenarioRun for Timed<'_> {
    fn step(&mut self) {
        let t0 = Instant::now();
        self.inner.step();
        self.samples.push(t0.elapsed().as_nanos() as u64);
    }

    fn beat(&self) -> u64 {
        self.inner.beat()
    }

    fn modulus(&self) -> Option<u64> {
        self.inner.modulus()
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        self.inner.clock_readings()
    }

    fn synced(&self) -> Option<u64> {
        self.inner.synced()
    }

    fn traffic(&self) -> &TrafficStats {
        self.inner.traffic()
    }

    fn extras(&self) -> Vec<(String, f64)> {
        self.inner.extras()
    }
}

fn start(
    registry: &byzclock::scenario::ProtocolRegistry,
    line: &str,
) -> Result<(ScenarioSpec, Box<dyn ScenarioRun>), String> {
    let spec = ScenarioSpec::parse(line).map_err(|e| e.to_string())?;
    let run = registry.start(&spec).map_err(|e| e.to_string())?;
    Ok((spec, run))
}

/// Times parse + start on builds of their own, started and dropped. Run
/// after the first episode, so every run times them from the same heap
/// state.
fn time_setups(
    registry: &byzclock::scenario::ProtocolRegistry,
    w: Workload,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for i in 0..SETUP_SAMPLES as u64 {
        let line = w.spec_line(seed, i).expect("simulated workload");
        let t0 = Instant::now();
        let run = start(registry, &line)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(run);
    }
    Ok(setups)
}

fn measure_scenario(w: Workload, args: &Args) -> Result<String, String> {
    let registry = default_registry();
    let mut checks = Checks::default();
    let mut beat_ns: Vec<u64> = Vec::new();
    let mut converge = Vec::new();
    let (mut beats, mut bytes, mut msgs) = (0u64, 0u64, 0u64);
    let mut gate = String::new();
    let (mut peak_kb, mut setups) = (0, Vec::new());
    let t_run = Instant::now();
    let mut episode = 0u64;
    loop {
        let enough = if args.minimal {
            episode >= 1
        } else {
            episode as usize >= w.min_episodes()
                && beat_ns.len() >= MIN_SAMPLES
                && t_run.elapsed().as_secs_f64() >= args.seconds
        };
        if enough {
            break;
        }
        let line = w.spec_line(args.seed, episode).expect("simulated workload");
        let (spec, run) = start(&registry, &line)?;
        let mut timed = Timed {
            inner: run,
            samples: &mut beat_ns,
        };
        let report = drive_exact(&mut timed, &spec, DEFAULT_SYNC_WINDOW);
        drop(timed);
        converge.push(check_report(w, &report, &mut checks));
        beats += report.beats;
        bytes += report.traffic.correct_bytes;
        msgs += report.traffic.correct_msgs;
        if episode == 0 {
            gate = report.to_json();
            // The footprint of one episode on a fresh heap: later builds
            // only add allocator fragmentation.
            peak_kb = proc_status_kb("VmHWM")?;
            setups = time_setups(&registry, w, args.seed)?;
        }
        episode += 1;
    }
    let step_s = beat_ns.iter().sum::<u64>() as f64 / 1e9;
    let metrics = Obj::new()
        .num("beats_per_s", beats as f64 / step_s)
        .num("beat_ms_p50", quantile_ns(&mut beat_ns, 0.5) / 1e6)
        .num("beat_ms_p90", quantile_ns(&mut beat_ns, 0.9) / 1e6)
        .num("setup_s", median(&mut setups))
        .num("peak_rss_mb", peak_kb as f64 / 1024.0)
        .num("bytes_per_beat", bytes as f64 / beats as f64)
        .num("msgs_per_beat", msgs as f64 / beats as f64)
        .num("converge_beats", mean(&converge));
    Ok(Obj::new()
        .str("mode", "measure")
        .str("gate", &gate)
        .int("attempted", checks.attempted)
        .strs("failures", &checks.failures)
        .int("episodes", episode)
        .int("samples", beat_ns.len() as u64)
        .obj("metrics", metrics)
        .finish())
}

fn measure_checker(args: &Args) -> Result<String, String> {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let model = BdModel::new(2);
        std::hint::black_box(model.initial_states());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let rss_before_kb = proc_status_kb("VmRSS")?;
    // Per-check throughput and quantiles; the run reports their medians,
    // so a check slowed by the host does not move the run's figures.
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut states, mut edges, mut samples) = (0u64, 0u64, 0usize);
    let (mut first_states, mut first_edges, mut peak_kb) = (0, 0, 0);
    let t_run = Instant::now();
    let mut done = 0;
    loop {
        let enough = if args.minimal {
            done >= 1
        } else {
            done >= Workload::McheckBd2.min_episodes()
                && t_run.elapsed().as_secs_f64() >= args.seconds
        };
        if enough {
            break;
        }
        let model = TimedModel::new(BdModel::new(2));
        let t0 = Instant::now();
        let report = check(&model, MCHECK_CAP);
        let check_s = t0.elapsed().as_secs_f64();
        let mut transition_ns = model.into_samples();
        samples += transition_ns.len();
        // A model "beat" is one transition: one beat of the n = 4 system
        // under one adversary choice and coin outcome.
        rates.push(report.edges as f64 / check_s);
        p50s.push(quantile_ns(&mut transition_ns, 0.5) / 1e6);
        p90s.push(quantile_ns(&mut transition_ns, 0.9) / 1e6);
        check_checker(&report, &mut checks);
        states += report.states as u64;
        edges += report.edges;
        if done == 0 {
            first_states = report.states;
            first_edges = report.edges;
            peak_kb = proc_status_kb("VmHWM")?;
        }
        done += 1;
    }
    let metrics = Obj::new()
        .num("beats_per_s", median(&mut rates))
        .num("beat_ms_p50", median(&mut p50s))
        .num("beat_ms_p90", median(&mut p90s))
        .num("setup_s", median(&mut setups))
        .num("peak_rss_mb", peak_kb as f64 / 1024.0)
        .num(
            "bytes_per_beat",
            peak_kb.saturating_sub(rss_before_kb) as f64 * 1024.0 / first_edges as f64,
        )
        .num("msgs_per_beat", states as f64 / edges as f64);
    Ok(Obj::new()
        .str("mode", "measure")
        .obj(
            "gate",
            Obj::new()
                .int("states", first_states as u64)
                .int("edges", first_edges),
        )
        .int("attempted", checks.attempted)
        .strs("failures", &checks.failures)
        .int("episodes", done as u64)
        .int("samples", samples as u64)
        .obj("metrics", metrics)
        .finish())
}

/// Nearest-rank quantile of `ns` (sorted in place), in ns.
fn quantile_ns(ns: &mut [u64], q: f64) -> f64 {
    ns.sort_unstable();
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// A `kB` field of `/proc/self/status` (`VmHWM` is the peak RSS).
fn proc_status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}
