//! The traced run: the same episodes as the timed run, rebuilt from the
//! public constructors with every layer boundary wrapped in a span.
//!
//! Wrapped boundaries:
//! - `Application` (sim ↔ core) — [`TracedApp`];
//! - `Adversary` — [`TracedAdv`];
//! - `CoinScheme`/`RoundProtocol`, per round index (core ↔ coin) —
//!   [`TracedScheme`]/[`TracedProto`];
//! - `mcheck::Model` — `model::TracedModel`.
//!
//! `TracedApp` also replays every delivered inbox through the run's
//! `WireFormat` (encode, then decode) inside its own span, which the
//! layer accounting excludes. The wrappers consume no randomness and
//! change no message, so each episode's `RunReport` must equal the
//! untraced run's — `run.py` refuses to report otherwise.

use crate::field_replay;
use crate::json::Obj;
use crate::model::TracedModel;
use crate::recorder::{
    self, Folded, WireTally, ADVERSARY, APP, BEAT, BOOKKEEPING, CHECK, CHOICES, COIN_ROUND,
    COIN_ROUNDS, REPLAY,
};
use crate::workload::{check_checker, check_report, Checks, Workload, MCHECK_CAP};
use crate::Args;
use bytes::BytesMut;
use byzclock_coin::adversary::CoinNoiseAdversary;
use byzclock_coin::{
    committee_epoch_seed, committee_fault_budget, CoinApp, CoinAppMsg, CommitteeCoinScheme,
    TicketCoinScheme, COMMITTEE_EPOCH_BEATS,
};
use byzclock_core::scenario::{
    builder_for, clock_adversary, delay_extras, drive_exact, AdversarySpec, ClockRun, ScenarioRun,
    ScenarioSpec, DEFAULT_SYNC_WINDOW,
};
use byzclock_core::{
    merge_metrics, BdClock, BdClockMsg, ClockSync, CoinScheme, DigitalClock, OracleBeacon,
    OracleRand, PipelinedCoin, RoundProtocol,
};
use byzclock_mcheck::{check, BdModel};
use byzclock_sim::{
    derive_seed, Adversary, AdversaryView, Application, ByzOutbox, Envelope, NodeId, Outbox,
    SilentAdversary, SimRng, Simulation, Target, TrafficStats, WireFormat,
};
use std::time::Instant;

// ---------------------------------------------------------------------
// The wrappers.
// ---------------------------------------------------------------------

/// An `Application` whose every call is an `app` span.
pub struct TracedApp<A> {
    inner: A,
    format: WireFormat,
    buf: BytesMut,
    ends: Vec<usize>,
}

impl<A> TracedApp<A> {
    fn new(inner: A, format: WireFormat) -> Self {
        TracedApp {
            inner,
            format,
            buf: BytesMut::new(),
            ends: Vec::new(),
        }
    }

    /// Encodes the inbox into one buffer, then decodes every message
    /// back, timing the two halves.
    fn replay<M: byzclock_sim::Wire>(&mut self, inbox: &[Envelope<M>]) {
        let span = recorder::begin(REPLAY);
        self.buf.clear();
        self.ends.clear();
        let t0 = Instant::now();
        for e in inbox {
            self.format.encode_into(&e.msg, &mut self.buf);
            self.ends.push(self.buf.len());
        }
        let t1 = Instant::now();
        let (mut start, mut undecodable) = (0, 0);
        for &end in &self.ends {
            let msg: Option<M> = self.format.decode_from(&self.buf.as_slice()[start..end]);
            undecodable += u64::from(std::hint::black_box(msg).is_none());
            start = end;
        }
        let t2 = Instant::now();
        recorder::add_wire(WireTally {
            msgs: inbox.len() as u64,
            bytes: self.buf.len() as u64,
            encode_ns: (t1 - t0).as_nanos() as u64,
            decode_ns: (t2 - t1).as_nanos() as u64,
            undecodable,
        });
        recorder::end(span);
    }
}

impl<A: Application> Application for TracedApp<A> {
    type Msg = A::Msg;

    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn begin_beat(&mut self, beat: u64) {
        let span = recorder::begin(APP);
        self.inner.begin_beat(beat);
        recorder::end(span);
    }

    fn send(&mut self, phase: usize, out: &mut Outbox<'_, A::Msg>) {
        let span = recorder::begin(APP);
        self.inner.send(phase, out);
        recorder::end(span);
    }

    fn deliver(&mut self, phase: usize, inbox: &[Envelope<A::Msg>], rng: &mut SimRng) {
        self.replay(inbox);
        let span = recorder::begin(APP);
        self.inner.deliver(phase, inbox, rng);
        recorder::end(span);
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        let span = recorder::begin(APP);
        self.inner.corrupt(rng);
        recorder::end(span);
    }

    fn parallel_safe(&self) -> bool {
        self.inner.parallel_safe()
    }
}

impl<A: DigitalClock> DigitalClock for TracedApp<A> {
    fn modulus(&self) -> u64 {
        self.inner.modulus()
    }

    fn read(&self) -> Option<u64> {
        self.inner.read()
    }
}

/// An `Adversary` whose every `act` is an `adversary` span.
pub struct TracedAdv<Adv>(Adv);

impl<M: Clone, Adv: Adversary<M>> Adversary<M> for TracedAdv<Adv> {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>) {
        let span = recorder::begin(ADVERSARY);
        self.0.act(view, out);
        recorder::end(span);
    }
}

/// A `CoinScheme` whose instances record one span per round call.
#[derive(Clone)]
pub struct TracedScheme<S>(S);

impl<S: CoinScheme> CoinScheme for TracedScheme<S> {
    type Proto = TracedProto<S::Proto>;

    fn rounds(&self) -> usize {
        self.0.rounds()
    }

    fn spawn(&self, rng: &mut SimRng) -> Self::Proto {
        TracedProto(self.0.spawn(rng))
    }

    fn begin_beat(&mut self, beat: u64) {
        self.0.begin_beat(beat);
    }
}

/// A `RoundProtocol` instance whose round calls are `coin.<round>` spans.
pub struct TracedProto<P>(P);

fn round_span(round: usize) -> usize {
    COIN_ROUND + round.min(COIN_ROUNDS - 1)
}

impl<P: RoundProtocol> RoundProtocol for TracedProto<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send_round(&mut self, round: usize, rng: &mut SimRng, out: &mut Vec<(Target, P::Msg)>) {
        let span = recorder::begin(round_span(round));
        self.0.send_round(round, rng, out);
        recorder::end(span);
    }

    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, P::Msg)], rng: &mut SimRng) {
        let span = recorder::begin(round_span(round));
        self.0.recv_round(round, inbox, rng);
        recorder::end(span);
    }

    fn output(&self) -> P::Output {
        self.0.output()
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.0.corrupt(rng);
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.0.metrics()
    }
}

// ---------------------------------------------------------------------
// The traced builds. Each mirrors its registry family line for line, so
// the reports must come out identical.
// ---------------------------------------------------------------------

/// A traced episode: a started run plus its coin counters.
trait Probe: ScenarioRun {
    /// The coin layer's instrumentation counters, summed over the
    /// correct nodes' pipelines (empty when no coin runs).
    fn coin_metrics(&self) -> Vec<(&'static str, f64)>;
}

type Sim<A> = Simulation<TracedApp<A>, TracedAdv<Box<dyn Adversary<<A as Application>::Msg>>>>;

fn sum_over<A: Application>(
    sim: &Sim<A>,
    per_app: impl Fn(&A) -> Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    let mut sum = Vec::new();
    for (_, app) in sim.correct_apps() {
        merge_metrics(&mut sum, per_app(&app.inner));
    }
    sum
}

fn spawn(w: Workload, spec: &ScenarioSpec) -> Result<Box<dyn Probe>, String> {
    let format = spec.wire_config().format;
    let unsupported = || format!("traced build does not cover `{spec}`");
    let builder = || builder_for(spec).step_threads(crate::workload::STEP_THREADS);
    Ok(match w {
        Workload::CoinNoise => {
            let AdversarySpec::CoinNoise { depth } = spec.adversary else {
                return Err(unsupported());
            };
            let adversary: Box<dyn Adversary<CoinAppMsg<TicketCoinScheme>>> =
                Box::new(CoinNoiseAdversary {
                    depth,
                    targets: spec.n,
                });
            let sim = builder().build(
                move |cfg, rng| {
                    TracedApp::new(
                        CoinApp::new(TracedScheme(TicketCoinScheme::new(cfg)), rng),
                        format,
                    )
                },
                TracedAdv(adversary),
            );
            Box::new(CoinStream { sim })
        }
        Workload::CommitteeSync => {
            let c = spec
                .committee
                .filter(|&c| c < spec.n)
                .ok_or_else(unsupported)?;
            let k = spec.clock_modulus;
            let epoch_seed = committee_epoch_seed(spec.seed);
            let adversary = clock_adversary::<<CommitteeStack as Application>::Msg>(spec, None)
                .map_err(|e| e.to_string())?;
            let coin = move |cfg, rng: &mut SimRng| {
                PipelinedCoin::new(
                    TracedScheme(CommitteeCoinScheme::new(cfg, c, epoch_seed)),
                    rng,
                )
            };
            let sim = builder().build(
                move |cfg, rng| {
                    TracedApp::new(
                        ClockSync::new(cfg, k, coin(cfg, rng), coin(cfg, rng), coin(cfg, rng)),
                        format,
                    )
                },
                TracedAdv(adversary),
            );
            Box::new(ClockRun::with_extras(sim, committee_extras))
        }
        Workload::BdStorm => {
            let k = spec.clock_modulus;
            let window = spec.timing().window();
            if spec.adversary != AdversarySpec::Silent {
                return Err(unsupported());
            }
            let adversary: Box<dyn Adversary<BdClockMsg>> = Box::new(SilentAdversary);
            // The registry's oracle beacon: stream 0 of the spec seed.
            let beacon = OracleBeacon::new(
                spec.coin.p0(),
                spec.coin.p1(),
                derive_seed(spec.seed, 0xBEAC_0000),
            );
            let sim = builder().build(
                move |cfg, _rng| {
                    TracedApp::new(BdClock::new(cfg, k, window, beacon.source(cfg.id)), format)
                },
                TracedAdv(adversary),
            );
            Box::new(ClockRun::with_extras(sim, bd_extras))
        }
        Workload::McheckBd2 => return Err(unsupported()),
    })
}

type CommitteeStack = ClockSync<PipelinedCoin<TracedScheme<CommitteeCoinScheme>>>;

/// The committee family's extras: the committee parameters.
fn committee_extras(sim: &Sim<CommitteeStack>) -> Vec<(String, f64)> {
    let Some((_, app)) = sim.correct_apps().next() else {
        return Vec::new();
    };
    let c = app.inner.rand_source().scheme().0.committee_size();
    vec![
        ("committee_size".to_string(), c as f64),
        (
            "committee_fault_budget".to_string(),
            committee_fault_budget(c) as f64,
        ),
        (
            "committee_epoch_beats".to_string(),
            COMMITTEE_EPOCH_BEATS as f64,
        ),
    ]
}

impl Probe
    for ClockRun<
        TracedApp<CommitteeStack>,
        TracedAdv<Box<dyn Adversary<<CommitteeStack as Application>::Msg>>>,
    >
{
    fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        sum_over(self.sim(), ClockSync::coin_metrics)
    }
}

type BdStack = BdClock<OracleRand>;

/// `bd_clock_extras` over the wrapped apps: each engine counter's mean
/// over the correct nodes, summed in node order.
fn bd_extras(sim: &Sim<BdStack>) -> Vec<(String, f64)> {
    let mut sums: Vec<(String, f64)> = Vec::new();
    let mut count = 0usize;
    for (_, app) in sim.correct_apps() {
        count += 1;
        for (name, value) in app.inner.metrics() {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    if count == 0 {
        return Vec::new();
    }
    for (_, v) in &mut sums {
        *v /= count as f64;
    }
    sums
}

impl Probe for ClockRun<TracedApp<BdStack>, TracedAdv<Box<dyn Adversary<BdClockMsg>>>> {
    fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

type StreamApp = CoinApp<TracedScheme<TicketCoinScheme>>;

/// The coin-stream family's run adapter over the wrapped apps.
struct CoinStream {
    sim: Sim<StreamApp>,
}

impl ScenarioRun for CoinStream {
    fn step(&mut self) {
        self.sim.step();
    }

    fn beat(&self) -> u64 {
        self.sim.beat()
    }

    fn modulus(&self) -> Option<u64> {
        None
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        Vec::new()
    }

    fn traffic(&self) -> &TrafficStats {
        self.sim.stats()
    }

    /// `coin_stats` over the wrapped apps (warm-up `Δ_A` excluded).
    fn extras(&self) -> Vec<(String, f64)> {
        let warmup = self
            .sim
            .correct_apps()
            .next()
            .map_or(4, |(_, a)| a.inner.depth());
        let histories: Vec<&[bool]> = self
            .sim
            .correct_apps()
            .map(|(_, a)| a.inner.history())
            .collect();
        let (mut beats, mut agree, mut zeros, mut ones) = (0usize, 0usize, 0usize, 0usize);
        if let Some(len) = histories.iter().map(|h| h.len()).min() {
            for beat in warmup..len {
                let first = histories[0][beat];
                beats += 1;
                if histories.iter().all(|h| h[beat] == first) {
                    agree += 1;
                    if first {
                        ones += 1;
                    } else {
                        zeros += 1;
                    }
                }
            }
        }
        let share = |k: usize| k as f64 / beats.max(1) as f64;
        let mut extras = vec![
            ("p0".to_string(), share(zeros)),
            ("p1".to_string(), share(ones)),
            ("agreement_rate".to_string(), share(agree)),
            ("measured_beats".to_string(), beats as f64),
        ];
        extras.extend(delay_extras(self.sim.timing(), self.sim.delay_histogram()));
        extras
    }
}

impl Probe for CoinStream {
    fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        sum_over(&self.sim, StreamApp::coin_metrics)
    }
}

/// Wraps each `step()` in the `beat` root span.
struct BeatSpans<'a>(&'a mut dyn Probe);

impl ScenarioRun for BeatSpans<'_> {
    fn step(&mut self) {
        recorder::set_id(self.0.beat());
        let span = recorder::begin(BEAT);
        self.0.step();
        recorder::end(span);
    }

    fn beat(&self) -> u64 {
        self.0.beat()
    }

    fn modulus(&self) -> Option<u64> {
        self.0.modulus()
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        self.0.clock_readings()
    }

    fn traffic(&self) -> &TrafficStats {
        self.0.traffic()
    }

    fn extras(&self) -> Vec<(String, f64)> {
        self.0.extras()
    }
}

// ---------------------------------------------------------------------
// The traced runs and their per-layer metrics.
// ---------------------------------------------------------------------

/// Every per-layer metric, in output order. A workload reports 0 for a
/// layer it does not run.
pub const PER_LAYER: [&str; 31] = [
    "sim.self_ms_per_beat",
    "sim.adversary_ms_per_beat",
    "sim.envelopes_per_beat",
    "sim.routed_kb_per_beat",
    "wire.encode_ns_per_kb",
    "wire.decode_ns_per_kb",
    "wire.est_share_of_beat",
    "core.self_ms_per_beat",
    "core.bd_quorum_ticks",
    "core.bd_timeout_events",
    "core.bd_late_arrivals",
    "core.bd_dropped_invalid",
    "core.bd_useful_delivery_ratio",
    "coin.share_ms_per_beat",
    "coin.echo_ms_per_beat",
    "coin.vote_ms_per_beat",
    "coin.recover_ms_per_beat",
    "coin.relay_ms_per_beat",
    "coin.decode_batches_per_beat",
    "coin.decode_codewords_per_beat",
    "coin.storage_reuse_ratio",
    "coin.decoder_hit_ratio",
    "field.ladder_ns_per_codeword",
    "field.batch_ns_per_codeword",
    "field.est_share_of_recover",
    "mcheck.successor_s",
    "mcheck.engine_self_s",
    "mcheck.states",
    "mcheck.edges",
    "trace.beat_ms_per_beat",
    "trace.layer_sum_ratio",
];

/// Named values, rendered in [`PER_LAYER`] order with 0 for the absent.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.contains(&name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name, v));
    }

    fn render(&self) -> Obj {
        PER_LAYER.iter().fold(Obj::new(), |o, name| {
            let v = self
                .0
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map_or(0.0, |p| p.1);
            o.num(name, v)
        })
    }
}

pub fn run(args: &Args) -> Result<String, String> {
    match args.workload {
        Workload::McheckBd2 => trace_checker(args),
        w => trace_scenario(w, args),
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn trace_scenario(w: Workload, args: &Args) -> Result<String, String> {
    let mut checks = Checks::default();
    let mut folded = Folded::default();
    let mut coin: Vec<(&'static str, f64)> = Vec::new();
    let (mut beats, mut envelopes, mut routed_bytes) = (0u64, 0u64, 0u64);
    let mut bd = [0.0f64; 5];
    let mut gate = String::new();
    let t_run = Instant::now();
    let mut episode = 0u64;
    while episode == 0 || (!args.minimal && t_run.elapsed().as_secs_f64() < args.seconds) {
        let line = w.spec_line(args.seed, episode).expect("simulated workload");
        let spec = ScenarioSpec::parse(&line).map_err(|e| e.to_string())?;
        let mut run = spawn(w, &spec)?;
        let report = drive_exact(&mut BeatSpans(run.as_mut()), &spec, DEFAULT_SYNC_WINDOW);
        let f = recorder::take(args.spans.as_deref().filter(|_| episode == 0))?;
        check_report(w, &report, &mut checks);
        checks.check(f.wire.undecodable == 0, || {
            format!(
                "{} delivered messages did not re-decode: {line}",
                f.wire.undecodable
            )
        });
        merge_metrics(&mut coin, run.coin_metrics());
        let t = &report.traffic;
        beats += report.beats;
        envelopes += t.correct_msgs + t.byz_msgs + t.phantom_msgs;
        routed_bytes += t.correct_bytes + t.byz_bytes;
        if w == Workload::BdStorm {
            let x = |k: &str| report.extra(k).unwrap_or(0.0);
            let (late, dropped) = (x("bd_late_arrivals"), x("bd_dropped_invalid"));
            let delivered_per_node = f.wire.msgs as f64 / report.final_clocks.len() as f64;
            bd[0] += x("bd_quorum_ticks");
            bd[1] += x("bd_timeout_events");
            bd[2] += late;
            bd[3] += dropped;
            bd[4] += 1.0 - ratio(late + dropped, delivered_per_node);
        }
        folded.add(&f);
        if episode == 0 {
            gate = report.to_json();
        }
        drop(run);
        episode += 1;
    }

    let b = beats as f64;
    let ms_per_beat = |ns: u64| ns as f64 / 1e6 / b;
    let beat_ns = folded.total_ns[BEAT] - folded.total_ns[REPLAY];
    let coin_ns: Vec<u64> = (0..COIN_ROUNDS)
        .map(|r| folded.self_ns[COIN_ROUND + r])
        .collect();
    let layer_ns = folded.self_ns[BEAT]
        + folded.self_ns[ADVERSARY]
        + folded.self_ns[APP]
        + coin_ns.iter().sum::<u64>();
    let wire = folded.wire;
    let kb = wire.bytes as f64 / 1024.0;
    let counter = |k: &str| coin.iter().find(|(n, _)| *n == k).map_or(0.0, |p| p.1);
    let codewords_per_beat = counter("decode_codewords") / b;

    let mut l = Layers::default();
    l.set("sim.self_ms_per_beat", ms_per_beat(folded.self_ns[BEAT]));
    l.set(
        "sim.adversary_ms_per_beat",
        ms_per_beat(folded.self_ns[ADVERSARY]),
    );
    l.set("sim.envelopes_per_beat", envelopes as f64 / b);
    l.set("sim.routed_kb_per_beat", routed_bytes as f64 / 1024.0 / b);
    l.set("wire.encode_ns_per_kb", ratio(wire.encode_ns as f64, kb));
    l.set("wire.decode_ns_per_kb", ratio(wire.decode_ns as f64, kb));
    l.set(
        "wire.est_share_of_beat",
        ratio((wire.encode_ns + wire.decode_ns) as f64, beat_ns as f64),
    );
    l.set("core.self_ms_per_beat", ms_per_beat(folded.self_ns[APP]));
    if w == Workload::BdStorm {
        let e = episode as f64;
        l.set("core.bd_quorum_ticks", bd[0] / e);
        l.set("core.bd_timeout_events", bd[1] / e);
        l.set("core.bd_late_arrivals", bd[2] / e);
        l.set("core.bd_dropped_invalid", bd[3] / e);
        l.set("core.bd_useful_delivery_ratio", bd[4] / e);
    }
    for (r, name) in [
        "coin.share_ms_per_beat",
        "coin.echo_ms_per_beat",
        "coin.vote_ms_per_beat",
        "coin.recover_ms_per_beat",
        "coin.relay_ms_per_beat",
    ]
    .into_iter()
    .enumerate()
    {
        l.set(name, ms_per_beat(coin_ns[r]));
    }
    l.set(
        "coin.decode_batches_per_beat",
        counter("decode_batches") / b,
    );
    l.set("coin.decode_codewords_per_beat", codewords_per_beat);
    let reuses = counter("alloc_storage_reuses");
    l.set(
        "coin.storage_reuse_ratio",
        ratio(reuses, counter("alloc_storage_builds") + reuses),
    );
    let hits = counter("alloc_decoder_hits");
    l.set(
        "coin.decoder_hit_ratio",
        ratio(hits, counter("alloc_decoder_builds") + hits),
    );
    let recover_ns_per_beat = coin_ns[3] as f64 / b;
    let field_ns = match w {
        Workload::CoinNoise => {
            let ns = field_replay::ladder_ns_per_codeword(args.seed)?;
            l.set("field.ladder_ns_per_codeword", ns);
            ns
        }
        Workload::CommitteeSync => {
            let ns = field_replay::batch_ns_per_codeword(args.seed)?;
            l.set("field.batch_ns_per_codeword", ns);
            ns
        }
        _ => 0.0,
    };
    l.set(
        "field.est_share_of_recover",
        ratio(field_ns * codewords_per_beat, recover_ns_per_beat),
    );
    l.set("trace.beat_ms_per_beat", ms_per_beat(beat_ns));
    l.set(
        "trace.layer_sum_ratio",
        ratio(layer_ns as f64, beat_ns as f64),
    );

    Ok(Obj::new()
        .str("mode", "trace")
        .str("gate", &gate)
        .int("attempted", checks.attempted)
        .strs("failures", &checks.failures)
        .int("episodes", episode)
        .num("beats_per_s", b / (beat_ns as f64 / 1e9))
        .obj("per_layer", l.render())
        .finish())
}

fn trace_checker(args: &Args) -> Result<String, String> {
    let mut checks = Checks::default();
    let mut folded = Folded::default();
    let (mut states, mut edges, mut depth) = (0u64, 0u64, 0u64);
    let t_run = Instant::now();
    let mut done = 0u64;
    while done == 0 || (!args.minimal && t_run.elapsed().as_secs_f64() < args.seconds) {
        let model = TracedModel::new(BdModel::new(2));
        recorder::set_id(done);
        let span = recorder::begin(CHECK);
        let report = check(&model, MCHECK_CAP);
        recorder::end(span);
        folded.add(&recorder::take(
            args.spans.as_deref().filter(|_| done == 0),
        )?);
        check_checker(&report, &mut checks);
        states += report.states as u64;
        edges += report.edges;
        depth = model.depth_beats();
        done += 1;
    }
    let n = done as f64;
    let check_ns = folded.total_ns[CHECK] - folded.total_ns[BOOKKEEPING];
    let mut l = Layers::default();
    l.set(
        "mcheck.successor_s",
        folded.self_ns[CHOICES] as f64 / 1e9 / n,
    );
    l.set(
        "mcheck.engine_self_s",
        folded.self_ns[CHECK] as f64 / 1e9 / n,
    );
    l.set("mcheck.states", states as f64 / n);
    l.set("mcheck.edges", edges as f64 / n);
    Ok(Obj::new()
        .str("mode", "trace")
        .obj(
            "gate",
            Obj::new()
                .int("states", states / done)
                .int("edges", edges / done),
        )
        .int("attempted", checks.attempted)
        .strs("failures", &checks.failures)
        .int("episodes", done)
        .num("beats_per_s", edges as f64 / (check_ns as f64 / 1e9))
        .int("depth_beats", depth)
        .obj("per_layer", l.render())
        .finish())
}
