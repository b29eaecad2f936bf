//! Parallel in-beat stepping is a pure wall-clock lever: whatever
//! `step_threads` says, every scenario replays to the byte-identical
//! report. The property holds across protocol families, adversaries, and
//! timing models because the phase barrier in `Simulation::step` fixes
//! the observable order (outboxes collected in node-ID order), and
//! protocols whose randomness is not per-node independent (the shared
//! oracle beacon) are gated back to serial stepping automatically —
//! which this suite covers too, by sweeping oracle rows alongside the
//! GVSS ones.

use byzclock::scenario::{default_registry, ScenarioSpec};
use byzclock::sim::set_step_threads_override;
use proptest::prelude::*;

/// Runs `line` (with `seed` substituted) under a thread-local
/// `step_threads` default and returns the report JSON.
fn run_with_threads(line: &str, seed: u64, threads: usize) -> String {
    let spec = ScenarioSpec::parse(line)
        .unwrap_or_else(|e| panic!("bad spec `{line}`: {e}"))
        .with_seed(seed);
    set_step_threads_override(Some(threads));
    let report = default_registry().run(&spec);
    set_step_threads_override(None);
    report
        .unwrap_or_else(|e| panic!("spec `{line}` failed: {e}"))
        .to_json()
}

/// One row per protocol family × adversary mix worth pinning: the full
/// GVSS stack, the standalone coin under an attacking dealer, the
/// shared-beacon oracle (serial-gated), the O(f) pipeline baseline, and
/// a bounded-delay line so the non-lockstep timing model is covered.
const ROWS: [&str; 7] = [
    "clock-sync n=7 f=2 k=16 coin=ticket adv=silent faults=corrupt-start budget=600",
    "clock-sync n=7 f=2 k=16 coin=ticket adv=silent faults=none budget=30",
    "coin-stream n=4 f=1 coin=ticket adv=coin-noise:4 faults=none budget=40",
    "coin-stream n=7 f=2 coin=ticket adv=silent faults=none budget=30",
    "two-clock n=7 f=2 coin=oracle adv=split-vote faults=corrupt-start budget=2000",
    "pk-clock n=4 f=1 k=32 coin=none adv=silent faults=corrupt-start budget=500",
    "clock-sync n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 budget=500",
];

proptest! {
    /// For every (row, seed), the serial report and the parallel report
    /// are the same bytes, at 2 and at 4 stepping threads.
    #[test]
    fn parallel_step_reports_are_byte_identical(
        row in 0usize..ROWS.len(),
        seed in 0u64..64,
        threads in prop_oneof![Just(2usize), Just(4usize)],
    ) {
        let line = ROWS[row];
        let serial = run_with_threads(line, seed, 1);
        let parallel = run_with_threads(line, seed, threads);
        prop_assert_eq!(
            serial,
            parallel,
            "step_threads={} changed the report for `{}` seed={}",
            threads,
            line,
            seed
        );
    }
}

/// The pinned seed reports of `tests/scenario_api.rs` replayed at
/// `step_threads=4`: parallel stepping must not move a single golden
/// byte. (The goldens are duplicated here on purpose — a drift fails
/// both suites and names the stepping mode that caused it.)
#[test]
fn parallel_step_preserves_the_golden_reports() {
    let goldens = [
        (
            "clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start seed=3 budget=3000",
            r#"{"spec":"clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start seed=3 budget=3000","beats":14,"converged_at":6,"measured_from":0,"final_streak":8,"final_clocks":[7,7,7,7,7],"traffic":{"correct_msgs":5719,"correct_bytes":978222,"byz_msgs":0,"byz_bytes":0,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":408.500,"mean_correct_bytes_per_beat":69873.000},"extras":{}}"#,
        ),
        (
            "two-clock n=7 f=2 coin=oracle adv=split-vote faults=corrupt-start seed=5 budget=2000",
            r#"{"spec":"two-clock n=7 f=2 k=8 coin=oracle:500,500 adv=split-vote faults=corrupt-start seed=5 budget=2000","beats":10,"converged_at":2,"measured_from":0,"final_streak":8,"final_clocks":[0,0,0,0,0],"traffic":{"correct_msgs":350,"correct_bytes":700,"byz_msgs":140,"byz_bytes":280,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":35.000,"mean_correct_bytes_per_beat":70.000},"extras":{}}"#,
        ),
        (
            "pk-clock n=4 f=1 k=32 coin=none adv=silent faults=corrupt-start seed=1 budget=500",
            r#"{"spec":"pk-clock n=4 f=1 k=32 coin=none adv=silent faults=corrupt-start seed=1 budget=500","beats":33,"converged_at":25,"measured_from":0,"final_streak":8,"final_clocks":[15,15,15],"traffic":{"correct_msgs":2640,"correct_bytes":13524,"byz_msgs":0,"byz_bytes":0,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":80.000,"mean_correct_bytes_per_beat":409.818},"extras":{}}"#,
        ),
        (
            "coin-stream n=4 f=1 coin=ticket adv=coin-noise:4 faults=none seed=11 budget=40",
            r#"{"spec":"coin-stream n=4 f=1 k=8 coin=ticket adv=coin-noise:4 faults=none seed=11 budget=40","beats":40,"converged_at":null,"measured_from":0,"final_streak":0,"final_clocks":[],"traffic":{"correct_msgs":1920,"correct_bytes":158976,"byz_msgs":640,"byz_bytes":41120,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":48.000,"mean_correct_bytes_per_beat":3974.400},"extras":{"p0":0.694444,"p1":0.305556,"agreement_rate":1.000000,"measured_beats":36.000000}}"#,
        ),
        (
            "coin-stream n=13 f=4 coin=ticket adv=coin-noise faults=none wire=packed-bytes seed=11 budget=24",
            r#"{"spec":"coin-stream n=13 f=4 k=8 coin=ticket adv=coin-noise:4 faults=none wire=packed-bytes seed=11 budget=24","beats":24,"converged_at":null,"measured_from":0,"final_streak":0,"final_clocks":[],"traffic":{"correct_msgs":11232,"correct_bytes":1116953,"byz_msgs":4992,"byz_bytes":394854,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":468.000,"mean_correct_bytes_per_beat":46539.708},"extras":{"p0":0.500000,"p1":0.500000,"agreement_rate":1.000000,"measured_beats":20.000000}}"#,
        ),
    ];
    let registry = default_registry();
    set_step_threads_override(Some(4));
    for (line, golden) in goldens {
        let spec = ScenarioSpec::parse(line).unwrap();
        let report = registry.run(&spec).unwrap();
        assert_eq!(
            report.to_json(),
            golden,
            "step_threads=4 drifted from the golden report for `{line}`"
        );
    }
    set_step_threads_override(None);
}
