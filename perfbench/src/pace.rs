//! The host's pace. On a shared host the machine runs up to 65 % slower
//! for seconds to minutes at a time while neighbours compete for its
//! cores, and the kernel reports next to no steal time. A fixed piece of reference
//! work, the same in every run and on every commit and touching none of
//! the program's data, is timed between operations; it slows with the
//! host. The end-to-end times are stated at the reference pace: each
//! measured time is scaled by [`REFERENCE_MS`] over the reference work's
//! time measured around it, so a slow spell of the host moves the raw times
//! but hardly the paced ones.
//!
//! The reference work is branchy integer code on a small working set (an
//! unstable sort of 8,000 random words, then a byte-by-byte scan of 32 KiB
//! of tag soup). Of the candidates tried (sorting, scanning, open-addressing
//! hashing, pointer chasing inside and beyond the private caches) these two
//! slowed most like the workloads did. It allocates nothing, so the state
//! of the program's heap does not move it.

use crate::rng::SplitMix64;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The reference pace: the reference work's time, in milliseconds, that
/// paced times assume. Near its time on the calibration host (0.2 ms in
/// a quiet spell, 0.33 ms in a busy one), so paced times read like
/// wall-clock ones.
pub const REFERENCE_MS: f64 = 0.25;

/// Operation time, in milliseconds, between two samples of the pace: the
/// samples cost about 2 % of a window.
const SAMPLE_EVERY_MS: f64 = 15.0;

/// Operation time, in milliseconds, after which a slice closes.
const SLICE_MS: f64 = 500.0;

/// Samples taken on each side of a set-up.
const SETUP_SAMPLES: usize = 16;

/// Words sorted by the reference work.
const WORDS: usize = 8000;

/// Bytes scanned by the reference work.
const TEXT: usize = 32 * 1024;

/// The reference work and its buffers, allocated once.
struct Reference {
    words: Vec<u64>,
    scratch: Vec<u64>,
    text: Vec<u8>,
}

impl Reference {
    fn new() -> Self {
        // A fixed seed: the work is the same whatever the run's seed.
        let mut g = SplitMix64::new(0, 0x9ACE);
        let words = (0..WORDS).map(|_| g.next_u64()).collect();
        let alphabet = b"<abcdefgh ijk=\"lmn\">/";
        let text = (0..TEXT)
            .map(|_| alphabet[g.below(alphabet.len())])
            .collect();
        Reference {
            words,
            scratch: Vec::with_capacity(WORDS),
            text,
        }
    }

    /// Does the work once; returns its time in milliseconds.
    fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.words);
        self.scratch.sort_unstable();
        let (mut hash, mut tags, mut depth) = (0xcbf2_9ce4_8422_2325u64, 0u32, 0i32);
        for &b in &self.text {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            match b {
                b'<' => {
                    tags += 1;
                    depth += 1;
                }
                b'/' => depth -= 1,
                b'"' if hash & 1 == 0 => depth ^= 1,
                _ => {}
            }
        }
        black_box((self.scratch[WORDS / 2], hash, tags, depth));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The pace measured along one run: it samples the reference work as
/// operations complete and converts each window's times to the reference
/// pace, slice by slice. A slice is a run of consecutive operations taking
/// about [`SLICE_MS`]; its operations' latencies and its wall-clock time
/// are scaled by the median pace sampled within it.
pub struct Pacer {
    reference: Reference,
    /// Operation time since the last sample, in milliseconds.
    due_ms: f64,
    /// The open slice: its start, latencies (each with whether it was
    /// traced), samples, time spent sampling and operation time.
    slice_start: Instant,
    slice_ms: Vec<(f64, bool)>,
    slice_pace: Vec<f64>,
    slice_sampling_s: f64,
    slice_op_ms: f64,
    /// The round's wall-clock time at the reference pace, in seconds, and
    /// its time spent sampling.
    round_paced_s: f64,
    round_sampling_s: f64,
    /// Every closed slice's latencies at the reference pace: untraced and
    /// traced.
    paced_ms: Vec<f64>,
    paced_traced_ms: Vec<f64>,
    /// Every sample, in milliseconds.
    samples: Vec<f64>,
}

impl Pacer {
    /// A pacer with no samples yet.
    pub fn new() -> Self {
        Pacer {
            reference: Reference::new(),
            due_ms: 0.0,
            slice_start: Instant::now(),
            slice_ms: Vec::new(),
            slice_pace: Vec::new(),
            slice_sampling_s: 0.0,
            slice_op_ms: 0.0,
            round_paced_s: 0.0,
            round_sampling_s: 0.0,
            paced_ms: Vec::new(),
            paced_traced_ms: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn sample(&mut self) -> f64 {
        let ms = self.reference.time_ms();
        self.samples.push(ms);
        ms
    }

    /// Runs the set-up `f` between two bursts of samples. Returns its
    /// result, its time in seconds, and that time at the reference pace
    /// measured around it.
    pub fn time_setup<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut around: Vec<f64> = (0..SETUP_SAMPLES).map(|_| self.sample()).collect();
        let t = Instant::now();
        let out = f();
        let seconds = t.elapsed().as_secs_f64();
        around.extend((0..SETUP_SAMPLES).map(|_| self.sample()));
        (out, seconds, seconds * REFERENCE_MS / median(&around))
    }

    /// A window starts now.
    pub fn start_window(&mut self) {
        self.round_paced_s = 0.0;
        self.round_sampling_s = 0.0;
        self.open_slice();
    }

    fn open_slice(&mut self) {
        self.slice_start = Instant::now();
        self.slice_ms.clear();
        self.slice_pace.clear();
        self.slice_sampling_s = 0.0;
        self.slice_op_ms = 0.0;
    }

    /// An operation of `ms` returned (and was checked). Samples the pace
    /// when one is due and closes the slice when it is long enough.
    pub fn after_op(&mut self, ms: f64, traced: bool) {
        self.slice_ms.push((ms, traced));
        self.slice_op_ms += ms;
        self.due_ms += ms;
        while self.due_ms >= SAMPLE_EVERY_MS {
            self.due_ms -= SAMPLE_EVERY_MS;
            let t = Instant::now();
            let pace = self.sample();
            self.slice_pace.push(pace);
            self.slice_sampling_s += t.elapsed().as_secs_f64();
        }
        if self.slice_op_ms >= SLICE_MS && !self.slice_pace.is_empty() {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        if self.slice_pace.is_empty() {
            let t = Instant::now();
            let pace = self.sample();
            self.slice_pace.push(pace);
            self.slice_sampling_s += t.elapsed().as_secs_f64();
        }
        let scale = REFERENCE_MS / median(&self.slice_pace);
        let wall = self.slice_start.elapsed().as_secs_f64() - self.slice_sampling_s;
        self.round_paced_s += wall * scale;
        self.round_sampling_s += self.slice_sampling_s;
        for &(ms, traced) in &self.slice_ms {
            let paced = if traced {
                &mut self.paced_traced_ms
            } else {
                &mut self.paced_ms
            };
            paced.push(ms * scale);
        }
        self.open_slice();
    }

    /// The window ends now; returns its wall-clock seconds at the
    /// reference pace and its seconds spent sampling, both excluded from
    /// the raw window too.
    pub fn end_window(&mut self) -> (f64, f64) {
        self.close_slice();
        (self.round_paced_s, self.round_sampling_s)
    }

    /// Untraced operation latencies at the reference pace, in milliseconds.
    pub fn paced_ms(&self) -> &[f64] {
        &self.paced_ms
    }

    /// Traced operation latencies at the reference pace, in milliseconds.
    pub fn paced_traced_ms(&self) -> &[f64] {
        &self.paced_traced_ms
    }

    /// Median of every sample of the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_scale_by_their_own_pace() {
        let mut p = Pacer::new();
        p.start_window();
        for k in 0..44 {
            p.after_op(20.0, k >= 40);
        }
        let (paced_s, sampling_s) = p.end_window();
        assert_eq!((p.paced_ms().len(), p.paced_traced_ms().len()), (40, 4));
        assert!(paced_s >= 0.0 && sampling_s > 0.0);
        // 25 operations of 20 ms fill a slice, scaled by one factor.
        let first = p.paced_ms()[0];
        assert!(first > 0.0);
        assert!(p.paced_ms()[..25].iter().all(|&ms| ms == first));
        assert!(p.median_ms() > 0.0);
    }

    #[test]
    fn set_ups_scale_by_the_pace_around_them() {
        let mut p = Pacer::new();
        let (out, seconds, paced) = p.time_setup(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(seconds >= 0.002);
        let scale = paced / seconds;
        assert!(scale > 0.0 && scale.is_finite());
    }
}
