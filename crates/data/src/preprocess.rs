//! Paper-faithful preprocessing: length-50 windows and model batches.
//!
//! Sec. V-A1: "we split every student's response sequence into subsequences
//! of 50 responses each. Subsequences with fewer than 5 responses are
//! removed, and those with fewer than 50 responses are padded."

use crate::types::{Dataset, QMatrix};

pub const DEFAULT_WINDOW_LEN: usize = 50;
pub const DEFAULT_MIN_LEN: usize = 5;

/// A fixed-length training window (padded past `len`).
#[derive(Clone, Debug)]
pub struct Window {
    pub student: u32,
    /// Question ids; entries at `len..` are padding (question 0).
    pub questions: Vec<u32>,
    /// Correctness 0/1; entries at `len..` are padding (0).
    pub correct: Vec<u8>,
    /// Number of real (non-padding) responses.
    pub len: usize,
}

/// Split a dataset into padded windows.
pub fn windows(ds: &Dataset, window_len: usize, min_len: usize) -> Vec<Window> {
    assert!(min_len >= 1 && min_len <= window_len);
    let mut out = Vec::new();
    for seq in &ds.sequences {
        for chunk in seq.interactions.chunks(window_len) {
            if chunk.len() < min_len {
                continue;
            }
            let mut questions = vec![0u32; window_len];
            let mut correct = vec![0u8; window_len];
            for (i, it) in chunk.iter().enumerate() {
                questions[i] = it.question;
                correct[i] = it.correct as u8;
            }
            out.push(Window {
                student: seq.student,
                questions,
                correct,
                len: chunk.len(),
            });
        }
    }
    out
}

/// A batch of windows flattened to b-major `[B*T]` vectors, with the concept
/// tags pre-resolved so models can embed questions per Eq. 23.
#[derive(Clone, Debug)]
pub struct Batch {
    pub batch: usize,
    pub t_len: usize,
    /// Student id per sequence, `[B]` (windows of one student share it).
    pub students: Vec<u32>,
    /// Question id per position, `[B*T]`.
    pub questions: Vec<usize>,
    /// Concept ids of all positions, flattened position-major.
    pub concept_flat: Vec<usize>,
    /// Number of concepts per position, `[B*T]` (≥ 1 even for padding —
    /// padding uses question 0's tags and is masked by `valid`).
    pub concept_lens: Vec<usize>,
    /// Ground-truth correctness per position (0.0 / 1.0), `[B*T]`.
    pub correct: Vec<f32>,
    /// Whether the position is a real response (not padding), `[B*T]`.
    pub valid: Vec<bool>,
}

impl Batch {
    /// Stack windows into one batch whose time axis is the longest window's
    /// `questions.len()`. Shorter windows are padded the way [`windows`]
    /// pads: question 0, incorrect, not valid.
    pub fn from_windows(ws: &[&Window], qm: &QMatrix) -> Batch {
        assert!(!ws.is_empty());
        let t_len = ws.iter().map(|w| w.questions.len()).max().unwrap_or(0);
        let batch = ws.len();
        let students: Vec<u32> = ws.iter().map(|w| w.student).collect();
        let n = batch * t_len;
        let mut questions = Vec::with_capacity(n);
        let mut concept_flat = Vec::new();
        let mut concept_lens = Vec::with_capacity(n);
        let mut correct = Vec::with_capacity(n);
        let mut valid = Vec::with_capacity(n);
        for w in ws {
            for t in 0..t_len {
                let q = w.questions.get(t).copied().unwrap_or(0) as usize;
                questions.push(q);
                let ks = qm.concepts_of(q as u32);
                concept_lens.push(ks.len());
                concept_flat.extend(ks.iter().map(|&k| k as usize));
                correct.push(w.correct.get(t).copied().unwrap_or(0) as f32);
                valid.push(t < w.len);
            }
        }
        Batch {
            batch,
            t_len,
            students,
            questions,
            concept_flat,
            concept_lens,
            correct,
            valid,
        }
    }

    /// Number of real responses in the batch.
    pub fn num_valid(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }

    /// Valid length of sequence `b`.
    pub fn seq_len(&self, b: usize) -> usize {
        (0..self.t_len)
            .take_while(|&t| self.valid[b * self.t_len + t])
            .count()
    }

    /// The sub-batch holding sequences `lo..hi`, with every per-position
    /// vector (including the ragged concept tags) re-sliced to match.
    /// Used to shard a batch across data-parallel gradient workers.
    pub fn sub_batch(&self, lo: usize, hi: usize) -> Batch {
        assert!(
            lo < hi && hi <= self.batch,
            "sub-batch {lo}..{hi} of {}",
            self.batch
        );
        let t = self.t_len;
        let (plo, phi) = (lo * t, hi * t);
        let flat_lo: usize = self.concept_lens[..plo].iter().sum();
        let flat_len: usize = self.concept_lens[plo..phi].iter().sum();
        Batch {
            batch: hi - lo,
            t_len: t,
            students: self.students[lo..hi].to_vec(),
            questions: self.questions[plo..phi].to_vec(),
            concept_flat: self.concept_flat[flat_lo..flat_lo + flat_len].to_vec(),
            concept_lens: self.concept_lens[plo..phi].to_vec(),
            correct: self.correct[plo..phi].to_vec(),
            valid: self.valid[plo..phi].to_vec(),
        }
    }

    /// The batch whose row `r` is sequence `rows[r]` of this one, with its
    /// ragged concept tags. Rows may repeat: the exact counterfactual
    /// fan-out stacks one copy of a sequence per intervention.
    pub fn gather_rows(&self, rows: &[usize]) -> Batch {
        let t = self.t_len;
        // Offset of each sequence's first concept tag in `concept_flat`.
        let mut flat_start = vec![0usize; self.batch + 1];
        for b in 0..self.batch {
            let tags: usize = self.concept_lens[b * t..(b + 1) * t].iter().sum();
            flat_start[b + 1] = flat_start[b] + tags;
        }
        let n = rows.len() * t;
        let mut out = Batch {
            batch: rows.len(),
            t_len: t,
            students: Vec::with_capacity(rows.len()),
            questions: Vec::with_capacity(n),
            concept_flat: Vec::new(),
            concept_lens: Vec::with_capacity(n),
            correct: Vec::with_capacity(n),
            valid: Vec::with_capacity(n),
        };
        for &b in rows {
            assert!(b < self.batch, "row {b} of a batch of {}", self.batch);
            let span = b * t..(b + 1) * t;
            out.students.push(self.students[b]);
            out.questions
                .extend_from_slice(&self.questions[span.clone()]);
            out.concept_flat
                .extend_from_slice(&self.concept_flat[flat_start[b]..flat_start[b + 1]]);
            out.concept_lens
                .extend_from_slice(&self.concept_lens[span.clone()]);
            out.correct.extend_from_slice(&self.correct[span.clone()]);
            out.valid.extend_from_slice(&self.valid[span]);
        }
        out
    }
}

/// Chunk `indices` into batches of (at most) `batch_size` windows.
pub fn make_batches<'a>(
    ws: &'a [Window],
    indices: &[usize],
    qm: &QMatrix,
    batch_size: usize,
) -> Vec<Batch> {
    assert!(batch_size >= 1);
    indices
        .chunks(batch_size)
        .map(|chunk| {
            let refs: Vec<&'a Window> = chunk.iter().map(|&i| &ws[i]).collect();
            Batch::from_windows(&refs, qm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Interaction, ResponseSeq};

    fn ds(lens: &[usize]) -> Dataset {
        let qm = QMatrix::new(vec![vec![0], vec![1], vec![0, 1]], 2);
        let sequences = lens
            .iter()
            .enumerate()
            .map(|(u, &l)| ResponseSeq {
                student: u as u32,
                interactions: (0..l)
                    .map(|t| Interaction {
                        question: (t % 3) as u32,
                        correct: t % 2 == 0,
                        timestamp: t as u64,
                    })
                    .collect(),
            })
            .collect();
        Dataset {
            name: "t".into(),
            sequences,
            q_matrix: qm,
        }
    }

    #[test]
    fn windows_split_pad_and_filter() {
        // 120 -> windows of 50, 50, 20; 3 -> dropped; 7 -> kept padded.
        let d = ds(&[120, 3, 7]);
        let ws = windows(&d, 50, 5);
        assert_eq!(ws.len(), 4);
        let lens: Vec<usize> = ws.iter().map(|w| w.len).collect();
        assert_eq!(lens, vec![50, 50, 20, 7]);
        for w in &ws {
            assert_eq!(w.questions.len(), 50);
            // padding is zeroed
            for t in w.len..50 {
                assert_eq!(w.questions[t], 0);
                assert_eq!(w.correct[t], 0);
            }
        }
    }

    #[test]
    fn batch_layout_is_b_major() {
        let d = ds(&[10, 8]);
        let ws = windows(&d, 10, 5);
        let refs: Vec<&Window> = ws.iter().collect();
        let b = Batch::from_windows(&refs, &d.q_matrix);
        assert_eq!(b.batch, 2);
        assert_eq!(b.t_len, 10);
        // position (b=1, t=2) is row 1*10+2
        assert_eq!(b.questions[12], 2);
        assert_eq!(b.concept_lens[12], 2); // question 2 has two concepts
        assert_eq!(b.seq_len(0), 10);
        assert_eq!(b.seq_len(1), 8);
        assert_eq!(b.num_valid(), 18);
        assert_eq!(b.concept_flat.len(), b.concept_lens.iter().sum::<usize>());
    }

    #[test]
    fn mixed_length_windows_pad_to_the_longest() {
        let d = ds(&[10, 8]);
        let ws = windows(&d, 10, 5);
        let short = Window {
            student: ws[1].student,
            questions: ws[1].questions[..ws[1].len].to_vec(),
            correct: ws[1].correct[..ws[1].len].to_vec(),
            len: ws[1].len,
        };
        let padded = Batch::from_windows(&[&ws[0], &ws[1]], &d.q_matrix);
        let mixed = Batch::from_windows(&[&ws[0], &short], &d.q_matrix);
        assert_eq!(mixed.t_len, 10);
        assert_eq!(mixed.questions, padded.questions);
        assert_eq!(mixed.concept_flat, padded.concept_flat);
        assert_eq!(mixed.concept_lens, padded.concept_lens);
        assert_eq!(mixed.correct, padded.correct);
        assert_eq!(mixed.valid, padded.valid);
        let alone = Batch::from_windows(&[&short], &d.q_matrix);
        assert_eq!(alone.t_len, 8);
        assert_eq!(alone.seq_len(0), 8);
    }

    #[test]
    fn sub_batch_matches_direct_construction() {
        let d = ds(&[10, 8, 6]);
        let ws = windows(&d, 10, 5);
        let refs: Vec<&Window> = ws.iter().collect();
        let full = Batch::from_windows(&refs, &d.q_matrix);
        let sub = full.sub_batch(1, 3);
        let expect = Batch::from_windows(&refs[1..3], &d.q_matrix);
        assert_eq!(sub.batch, 2);
        assert_eq!(sub.t_len, full.t_len);
        assert_eq!(sub.students, expect.students);
        assert_eq!(sub.questions, expect.questions);
        assert_eq!(sub.concept_flat, expect.concept_flat);
        assert_eq!(sub.concept_lens, expect.concept_lens);
        assert_eq!(sub.correct, expect.correct);
        assert_eq!(sub.valid, expect.valid);
        assert_eq!(sub.seq_len(0), 8);
        assert_eq!(sub.seq_len(1), 6);
    }

    #[test]
    fn gather_rows_restacks_sequences_with_their_concept_tags() {
        // Question 2 carries two concepts, so the tags are ragged per row.
        let d = ds(&[10, 8, 6, 9]);
        let ws = windows(&d, 10, 5);
        let refs: Vec<&Window> = ws.iter().collect();
        let full = Batch::from_windows(&refs, &d.q_matrix);
        let fields = |b: &Batch| {
            (
                b.batch,
                b.t_len,
                b.students.clone(),
                b.questions.clone(),
                b.concept_flat.clone(),
                b.concept_lens.clone(),
                b.correct.clone(),
                b.valid.clone(),
            )
        };
        assert_eq!(
            fields(&full.gather_rows(&[1, 2])),
            fields(&full.sub_batch(1, 3))
        );
        assert_eq!(fields(&full.gather_rows(&[0, 1, 2, 3])), fields(&full));
        // Repeated and reordered rows match direct construction.
        let picked = [3, 0, 3, 2, 2];
        let expect: Vec<&Window> = picked.iter().map(|&i| refs[i]).collect();
        let gathered = full.gather_rows(&picked);
        assert_eq!(
            fields(&gathered),
            fields(&Batch::from_windows(&expect, &d.q_matrix))
        );
        assert_eq!(
            gathered.concept_flat.len(),
            gathered.concept_lens.iter().sum::<usize>()
        );
    }

    #[test]
    fn make_batches_chunks() {
        let d = ds(&[10, 10, 10]);
        let ws = windows(&d, 10, 5);
        let idx: Vec<usize> = (0..ws.len()).collect();
        let batches = make_batches(&ws, &idx, &d.q_matrix, 2);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].batch, 2);
        assert_eq!(batches[1].batch, 1);
    }
}
