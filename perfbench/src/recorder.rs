//! The in-memory span recorder behind the traced run.
//!
//! Every wrapper in `traced.rs`/`model.rs` opens a span around the call it
//! wraps; a span records its name, start, end, parent (the innermost span
//! open when it began) and the shared id of its root — the beat index for
//! simulated workloads. Spans stay in memory until the episode ends, when
//! [`take`] folds them into per-name totals (and, on request, writes them
//! out). A layer's *self* time is its spans' duration minus the part its
//! child spans cover.
//!
//! The recorder is thread-local: the benchmark steps every simulation on
//! one thread, so the nesting is exact.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

/// Span names. `BEAT` and `CHECK` are roots; any other span opened while
/// no root is open (simulation build, boot corruption) is not recorded.
pub const BEAT: usize = 0;
pub const APP: usize = 1;
pub const ADVERSARY: usize = 2;
/// The wire replay the traced run adds inside delivery; excluded from
/// every layer's time.
pub const REPLAY: usize = 3;
/// Coin rounds by index: share, echo, vote, recover, relay.
pub const COIN_ROUND: usize = 4;
pub const COIN_ROUNDS: usize = 5;
pub const CHECK: usize = 9;
pub const CHOICES: usize = 10;
pub const MODEL_OTHER: usize = 11;
/// The traced checker's own depth bookkeeping; excluded like `REPLAY`.
pub const BOOKKEEPING: usize = 12;

pub const NAMES: [&str; 13] = [
    "beat",
    "app",
    "adversary",
    "wire.replay",
    "coin.share",
    "coin.echo",
    "coin.vote",
    "coin.recover",
    "coin.relay",
    "check",
    "model.choices",
    "model.other",
    "mcheck.bookkeeping",
];

struct Span {
    name: u8,
    parent: u32,
    id: u32,
    start: u64,
    end: u64,
}

const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    id: u32,
    wire: WireTally,
}

/// What the wire replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireTally {
    pub msgs: u64,
    pub bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub undecodable: u64,
}

impl WireTally {
    fn add(&mut self, o: WireTally) {
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.undecodable += o.undecodable;
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        id: 0,
        wire: WireTally::default(),
    });
}

/// An open span; close it with [`end`].
#[must_use]
pub struct Open(Option<u32>);

/// Opens a span named `name` (an index into [`NAMES`]).
pub fn begin(name: usize) -> Open {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let root = name == BEAT || name == CHECK;
        if r.open.is_empty() && !root {
            return Open(None);
        }
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let idx = r.spans.len() as u32;
        let start = r.origin.elapsed().as_nanos() as u64;
        let id = r.id;
        r.spans.push(Span {
            name: name as u8,
            parent,
            id,
            start,
            end: start,
        });
        r.open.push(idx);
        Open(Some(idx))
    })
}

/// Closes a span opened by [`begin`].
pub fn end(open: Open) {
    let Some(idx) = open.0 else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.origin.elapsed().as_nanos() as u64;
        r.spans[idx as usize].end = now;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in nesting order");
    })
}

/// Sets the id the next root span (and its children) carry.
pub fn set_id(id: u64) {
    REC.with(|r| r.borrow_mut().id = id as u32);
}

/// Adds one inbox's wire replay to the tally.
pub fn add_wire(t: WireTally) {
    REC.with(|r| r.borrow_mut().wire.add(t));
}

/// Per-name totals of one or more folded episodes.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    pub total_ns: [u64; NAMES.len()],
    pub self_ns: [u64; NAMES.len()],
    pub wire: WireTally,
}

impl Folded {
    pub fn add(&mut self, other: &Folded) {
        for i in 0..NAMES.len() {
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.wire.add(other.wire);
    }
}

/// Folds and clears the recorded spans; with `dump`, first writes them
/// out as JSON lines.
pub fn take(dump: Option<&str>) -> Result<Folded, String> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.open.is_empty() {
            return Err("span left open at the end of an episode".into());
        }
        if let Some(path) = dump {
            write_spans(path, &r.spans).map_err(|e| format!("writing {path}: {e}"))?;
        }
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut f = Folded {
            wire: r.wire,
            ..Folded::default()
        };
        for (s, child) in r.spans.iter().zip(child_ns) {
            let d = s.end - s.start;
            let n = s.name as usize;
            f.total_ns[n] += d;
            f.self_ns[n] += d.saturating_sub(child);
        }
        r.spans.clear();
        r.wire = WireTally::default();
        Ok(f)
    })
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
            NAMES[s.name as usize], s.id, s.start, s.end
        )?;
    }
    out.flush()
}
