//! The bounded record ring shared by the journal, the flight recorder and
//! the audit log.
//!
//! A [`Ring`] numbers every record it is given, keeps the newest `cap` of
//! them, and counts what it evicted, so each log keeps only its typed
//! records and its own extras (the journal's lineage index, the
//! recorder's counter sampler, the audit log's sink). [`Counts`] is the
//! status every log prints.

use std::collections::VecDeque;
use std::fmt;

use serde_json::Value;

/// How many records a log has seen and how many it still holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Records since the last reset, evicted ones included.
    pub recorded: u64,
    /// Records the ring still holds.
    pub retained: u64,
    /// Records evicted by the bound.
    pub dropped: u64,
    /// The bound.
    pub cap: u64,
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recorded {}, retained {}, dropped {}, cap {}",
            self.recorded, self.retained, self.dropped, self.cap
        )
    }
}

/// A bounded, sequence-numbered record buffer: once `cap` records are
/// held, each push evicts the oldest.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    cap: usize,
    buf: VecDeque<T>,
    next_seq: u64,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `cap` records.
    pub(crate) const fn new(cap: usize) -> Self {
        Ring {
            cap,
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends the record `make` builds from the next sequence number.
    /// Returns that number, and the oldest record if the bound evicted it.
    pub(crate) fn push(&mut self, make: impl FnOnce(u64) -> T) -> (u64, Option<T>) {
        let evicted = if self.buf.len() >= self.cap {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(make(seq));
        (seq, evicted)
    }

    /// The sequence number the next record will receive.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The retained records, oldest first.
    pub(crate) fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.buf.iter()
    }

    pub(crate) fn counts(&self) -> Counts {
        Counts {
            recorded: self.next_seq,
            retained: self.buf.len() as u64,
            dropped: self.dropped,
            cap: self.cap as u64,
        }
    }

    /// Every retained record as one compact JSON line, oldest first.
    pub(crate) fn to_jsonl(&self, to_json: impl Fn(&T) -> Value) -> String {
        let mut out = String::new();
        for record in &self.buf {
            out.push_str(&to_json(record).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_drops_the_oldest_record() {
        let mut ring = Ring::new(3);
        let mut evicted = Vec::new();
        for i in 0..5u64 {
            let (seq, old) = ring.push(|seq| (seq, i * 10));
            assert_eq!(seq, i);
            evicted.extend(old);
        }
        assert_eq!(evicted, vec![(0, 0), (1, 10)]);
        let kept: Vec<(u64, u64)> = ring.iter().copied().collect();
        assert_eq!(kept, vec![(2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn sequence_numbers_keep_counting_past_the_bound() {
        let mut ring = Ring::new(2);
        for _ in 0..7 {
            ring.push(|seq| seq);
        }
        assert_eq!(ring.next_seq(), 7);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    fn counts_add_up() {
        let mut ring = Ring::new(4);
        assert_eq!(
            ring.counts(),
            Counts {
                cap: 4,
                ..Counts::default()
            }
        );
        for _ in 0..10 {
            ring.push(|seq| seq);
        }
        let c = ring.counts();
        assert_eq!(
            c,
            Counts {
                recorded: 10,
                retained: 4,
                dropped: 6,
                cap: 4
            }
        );
        assert_eq!(c.recorded, c.retained + c.dropped);
        assert_eq!(c.to_string(), "recorded 10, retained 4, dropped 6, cap 4");
    }

    #[test]
    fn jsonl_writes_one_line_per_retained_record() {
        let mut ring = Ring::new(2);
        for _ in 0..3 {
            ring.push(|seq| seq);
        }
        assert_eq!(ring.to_jsonl(|&seq| Value::from(seq)), "1\n2\n");
    }
}
