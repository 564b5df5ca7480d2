//! The closed loop every workload runs in: rounds of timed set-ups, a
//! warm-up and a measured wall-clock window in which one client issues its
//! next operation only after the previous one returned; then untimed
//! validation, and the traced variant. The host's pace is sampled around
//! every set-up and between operations, so each time can also be stated at
//! the reference pace.

use crate::pace::Pacer;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::{self, Span};
use std::time::Instant;

/// What a workload is built from.
#[derive(Clone)]
pub struct Config {
    /// Seed of the generated scenario and of the operation stream.
    pub seed: u64,
    /// Listings per source, overriding the workload's own size (tests use
    /// small ones).
    pub scale: Option<usize>,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A named value with its unit.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// A benchmark workload. The harness times [`Workload::setup`] and
/// [`Workload::op`] on their own, and the window as a whole.
pub trait Workload: Sized {
    /// What a round's window counts for the per-layer metrics. Each round
    /// builds a new state, so the harness hands the count on from one
    /// round's state to the next.
    type Tally: Default;
    /// Builds the workload's state from the seed.
    fn setup(cfg: &Config) -> Result<Self, String>;
    /// Called when a round's warm-up ends, with the earlier rounds' tally.
    fn start_window(&mut self, _earlier: Self::Tally) {}
    /// Called when a round's window ends: the tally so far.
    fn end_window(&mut self) -> Self::Tally {
        Self::Tally::default()
    }
    /// Draws the inputs of operation `i` (and frees the previous output).
    fn prepare(&mut self, _i: u64) {}
    /// One operation: the timed unit of work.
    fn op(&mut self) -> Result<(), String>;
    /// Checks the operation just run; a mismatch fails the operation.
    fn check(&mut self, _i: u64) -> Result<(), String> {
        Ok(())
    }
    /// Validates the workload's outputs after the last window; returns
    /// every mismatch found.
    fn validate(&mut self) -> Vec<String>;
    /// Per-layer metrics derived from a traced run's spans and tally.
    fn layers(&mut self, tally: &Self::Tally, rooted: &Rooted<'_>) -> Vec<Metric>;
}

/// Run length and tracing.
pub struct Plan {
    /// Wall-clock time measured, in seconds, split evenly over the rounds.
    pub seconds: f64,
    /// Wall-clock time run before the windows and not measured, split
    /// evenly over the rounds.
    pub warmup: f64,
    /// End each round's window after this many operations (tests).
    pub max_ops: Option<u64>,
    /// Record spans on half the operations and during set-up.
    pub traced: bool,
}

/// Rounds per run. Each sets the workload up anew (timed; the median is
/// `setup_s`) and measures a slice of the window, so the set-ups sample
/// the host across the whole run rather than in one burst, and a slow
/// spell of the host moves one round's throughput, not the median.
pub const ROUNDS: usize = 5;

/// Set-ups per round: all are timed, the last is kept. A set-up takes a
/// fraction of a second, too short for its time to settle alone.
const SETUPS: usize = 2;

/// Failure messages kept per run (the count is kept in full).
const KEPT_ERRORS: usize = 8;

/// Salt of the hash that picks the traced operations.
const TRACED: u64 = 0x7ACE;

/// Everything one run measured. "Paced" values are stated at the
/// reference pace (see [`crate::pace`]).
pub struct Run {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The same, paced.
    pub paced_setup_s: Vec<f64>,
    /// Latency of each untraced operation in the windows, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// The same, paced.
    pub paced_ms: Vec<f64>,
    /// Latency of each traced operation in the windows at the reference
    /// pace, in milliseconds.
    pub paced_traced_ms: Vec<f64>,
    /// Operations per second of wall-clock window, one per round; the
    /// time spent sampling the pace is left out of the window.
    pub round_ops_s: Vec<f64>,
    /// The same, paced.
    pub paced_ops_s: Vec<f64>,
    /// Median time of the reference work over the run, in milliseconds.
    pub pace_ms: f64,
    /// Operations started in the windows.
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// Failure messages and validation mismatches.
    pub errors: Vec<String>,
    /// Whether post-run validation and the warm-ups passed.
    pub valid: bool,
    /// The traced run's spans.
    pub spans: Vec<Span>,
    /// The traced run's per-layer metrics.
    pub layers: Vec<Metric>,
    /// Peak resident set of this process, in MiB.
    pub peak_rss_mb: f64,
}

/// Runs workload `W` under `plan`.
pub fn run<W: Workload>(cfg: &Config, plan: &Plan) -> Result<Run, String> {
    let window = plan.seconds / ROUNDS as f64;
    let warmup = plan.warmup / ROUNDS as f64;
    let mut setup_s = Vec::with_capacity(ROUNDS * SETUPS);
    let mut latency_ms = Vec::new();
    let mut round_ops_s = Vec::with_capacity(ROUNDS);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut valid = true;
    let mut tally = W::Tally::default();
    let mut state: Option<W> = None;
    let mut i = 0u64;
    let mut pacer = Pacer::new();
    let mut paced_setup_s = Vec::with_capacity(ROUNDS * SETUPS);
    let mut paced_ops_s = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut built = None;
        for _ in 0..SETUPS {
            // The previous state goes first, so set-ups never overlap in
            // memory.
            drop(state.take());
            drop(built.take());
            let (b, seconds, paced) = pacer.time_setup(|| {
                trace::set_on(plan.traced);
                trace::set_request(i);
                let root = trace::begin("setup");
                let b = W::setup(cfg);
                trace::end(root);
                trace::set_on(false);
                b
            });
            setup_s.push(seconds);
            paced_setup_s.push(paced);
            built = Some(b?);
            i += 1;
        }
        let mut w = built.expect("at least one set-up");

        let t = Instant::now();
        while t.elapsed().as_secs_f64() < warmup {
            w.prepare(i);
            if let Err(e) = w.op().and_then(|()| w.check(i)) {
                valid = false;
                keep(&mut errors, format!("round {round} warm-up op {i}: {e}"));
            }
            i += 1;
        }

        w.start_window(std::mem::take(&mut tally));
        let mut ops = 0u64;
        pacer.start_window();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < window && plan.max_ops.is_none_or(|m| ops < m) {
            w.prepare(i);
            // Half the operations, picked by a hash of the index rather than
            // by its parity: a stream that repeats with an even period would
            // otherwise trace the same requests every time round.
            let traced = plan.traced && SplitMix64::new(i, TRACED).next_u64() & 1 == 0;
            trace::set_on(traced);
            trace::set_request(i);
            let root = trace::begin("op");
            let t = Instant::now();
            let r = w.op();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            trace::end(root);
            let r = r.and_then(|()| w.check(i));
            trace::set_on(false);
            if !traced {
                latency_ms.push(ms);
            }
            pacer.after_op(ms, traced);
            if let Err(e) = r {
                failed += 1;
                keep(&mut errors, format!("round {round} op {i}: {e}"));
            }
            attempted += 1;
            ops += 1;
            i += 1;
        }
        let (paced_s, sampling_s) = pacer.end_window();
        round_ops_s.push(ops as f64 / (start.elapsed().as_secs_f64() - sampling_s));
        paced_ops_s.push(ops as f64 / paced_s);
        tally = w.end_window();
        state = Some(w);
    }
    let mut w = state.expect("at least one round");

    let mismatches = w.validate();
    valid &= mismatches.is_empty();
    for m in mismatches {
        keep(&mut errors, format!("validation: {m}"));
    }
    let spans = trace::take();
    let layers = if plan.traced {
        w.layers(&tally, &Rooted::new(&spans))
    } else {
        Vec::new()
    };
    Ok(Run {
        setup_s,
        paced_setup_s,
        latency_ms,
        paced_ms: pacer.paced_ms().to_vec(),
        paced_traced_ms: pacer.paced_traced_ms().to_vec(),
        round_ops_s,
        paced_ops_s,
        pace_ms: pacer.median_ms(),
        attempted,
        failed,
        errors,
        valid,
        spans,
        layers,
        peak_rss_mb: peak_rss_mb()?,
    })
}

fn keep(errors: &mut Vec<String>, e: String) {
    if errors.len() < KEPT_ERRORS {
        errors.push(e);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A traced run's spans with each span's root and self time.
pub struct Rooted<'a> {
    spans: &'a [Span],
    root: Vec<usize>,
    own: Vec<u64>,
}

impl<'a> Rooted<'a> {
    /// Indexes `spans` (parents always precede their children).
    pub fn new(spans: &'a [Span]) -> Self {
        let mut root = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            let r = s.parent.map_or(i, |p| root[p]);
            root.push(r);
        }
        Rooted {
            spans,
            root,
            own: trace::self_times(spans),
        }
    }

    /// Durations in milliseconds of the spans whose name satisfies `pred`,
    /// under roots named `root`.
    pub fn durations_ms(&self, root: &str, pred: impl Fn(&str) -> bool) -> Vec<f64> {
        self.matching(root, pred)
            .into_iter()
            .map(|i| self.spans[i].dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per root named `root`, the summed duration in milliseconds of its
    /// spans whose name satisfies `pred` (roots with none contribute 0).
    pub fn per_root_ms(&self, root: &str, pred: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut totals: Vec<(usize, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                totals.push((i, 0.0));
            }
        }
        for i in self.matching(root, pred) {
            if let Ok(k) = totals.binary_search_by_key(&self.root[i], |&(r, _)| r) {
                totals[k].1 += self.spans[i].dur_ns() as f64 / 1e6;
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// Share of the time under roots named `root` that no child span
    /// accounts for.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                own += self.own[i];
                total += s.dur_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    fn matching(&self, root: &str, pred: impl Fn(&str) -> bool) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[self.root[i]].name == root && pred(&self.spans[i].name))
            .collect()
    }
}

/// Median of per-set-up totals of the spans named `name`, in milliseconds.
pub fn setup_ms(rooted: &Rooted<'_>, name: &str) -> f64 {
    median(&rooted.per_root_ms("setup", |n| n == name))
}

/// The per-layer metrics every traced run reports about the harness
/// itself.
pub fn harness_layers(run: &Run, rooted: &Rooted<'_>) -> Vec<Metric> {
    // Medians, so that where a rare slow operation (a checkpoint) lands
    // does not read as tracing cost; paced, so that a slow spell of the
    // host during one half does not either.
    let untraced = median(&run.paced_ms);
    let traced = median(&run.paced_traced_ms);
    vec![
        Metric::new(
            "bench.trace_overhead_frac",
            traced / untraced - 1.0,
            "ratio",
        ),
        Metric::new(
            "bench.unattributed_frac",
            rooted.unattributed_frac("op"),
            "ratio",
        ),
    ]
}
