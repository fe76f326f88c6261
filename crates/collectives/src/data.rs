//! Data distribution plumbing shared by the collectives.
//!
//! Collectives move *pieces*: contiguous runs of the global item array,
//! self-describing via their offset so receivers can reassemble in item
//! order regardless of arrival order. On the wire a piece is
//! `[offset, items…]` as little-endian `u32`s (one extra model word per
//! piece — negligible against the paper's 25k–250k word payloads).

use crate::plan::WorkloadPolicy;
use hbsp_core::{MachineTree, Partition, ProcId, WireWriter};
use hbsplib::codec;
use std::fmt;

/// A data error met while running a collective: a malformed piece,
/// bundle or partial payload, or a send whose data never arrived.
/// Collectives surface this through their result instead of aborting
/// the run: a truncated or lost message is a data error, not a
/// programming error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A piece payload without even an offset word.
    MissingOffset,
    /// A bundle payload without even a count word.
    MissingCount,
    /// A bundle ended inside a piece header.
    TruncatedHeader,
    /// A bundle ended inside a piece body.
    TruncatedBody,
    /// A bundle carried words past its last declared piece.
    TrailingWords,
    /// A payload whose length is not a whole number of words.
    RaggedPayload,
    /// A partial-reduction vector whose length differs from the
    /// receiver's accumulator.
    PartialLength,
    /// Scheduled data never arrived: a send, a fold or the caller's read
    /// of the result needs items or a partial the processor never
    /// received.
    MissingUnit,
    /// A message whose tag is none of the schedule program's three wire
    /// layouts (piece, bundle, partial).
    ForeignTag(u32),
    /// A partial-reduction vector arrived at a program built without a
    /// `ReduceOp` to fold it with.
    NoReduceOp,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::MissingOffset => write!(f, "piece payload must carry an offset word"),
            DecodeError::MissingCount => write!(f, "bundle payload must carry a count"),
            DecodeError::TruncatedHeader => write!(f, "truncated bundle header"),
            DecodeError::TruncatedBody => write!(f, "truncated bundle body"),
            DecodeError::TrailingWords => write!(f, "trailing words in bundle"),
            DecodeError::RaggedPayload => write!(f, "payload is not a whole number of words"),
            DecodeError::PartialLength => {
                write!(f, "partial vector and accumulator differ in length")
            }
            DecodeError::MissingUnit => {
                write!(f, "scheduled data never arrived at this processor")
            }
            DecodeError::ForeignTag(tag) => write!(f, "message with foreign tag {tag:#x}"),
            DecodeError::NoReduceOp => write!(f, "partial-reduction vector but no ReduceOp"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A contiguous run of the global array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece {
    /// Index of `items[0]` within the global array.
    pub offset: u32,
    /// The items.
    pub items: Vec<u32>,
}

impl Piece {
    /// Encode as `[offset, items…]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 * (1 + self.items.len()));
        let mut w = WireWriter::new(&mut out);
        w.word(self.offset);
        w.u32s(&self.items);
        out
    }

    /// Decode from a payload produced by [`Piece::encode`].
    pub fn decode(payload: &[u8]) -> Result<Piece, DecodeError> {
        let body = whole_words(payload)?
            .get(4..)
            .ok_or(DecodeError::MissingOffset)?;
        Ok(Piece {
            offset: word_at(payload, 0),
            items: codec::decode_u32s(body),
        })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the piece carries no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Encode several pieces into one payload:
/// `[count, (offset, len, items…)…]` as `u32` words. Hierarchical
/// collectives bundle a whole cluster's pieces into a single message so
/// per-message overhead is paid once per link, not once per origin.
pub fn encode_bundle(pieces: &[Piece]) -> Vec<u8> {
    let total: usize = pieces.iter().map(|p| 2 + p.items.len()).sum();
    let mut out = Vec::with_capacity(4 * (1 + total));
    let mut w = WireWriter::new(&mut out);
    w.word(pieces.len() as u32);
    for p in pieces {
        w.word(p.offset);
        w.word(p.items.len() as u32);
        w.u32s(&p.items);
    }
    out
}

/// Decode a payload produced by [`encode_bundle`].
pub fn decode_bundle(payload: &[u8]) -> Result<Vec<Piece>, DecodeError> {
    let words = whole_words(payload)?.len() / 4;
    if words == 0 {
        return Err(DecodeError::MissingCount);
    }
    let count = word_at(payload, 0) as usize;
    let mut out = Vec::with_capacity(count.min(words));
    let mut i = 1;
    for _ in 0..count {
        if i + 2 > words {
            return Err(DecodeError::TruncatedHeader);
        }
        let offset = word_at(payload, i);
        let len = word_at(payload, i + 1) as usize;
        i += 2;
        if i + len > words {
            return Err(DecodeError::TruncatedBody);
        }
        out.push(Piece {
            offset,
            items: codec::decode_u32s(&payload[4 * i..4 * (i + len)]),
        });
        i += len;
    }
    if i != words {
        return Err(DecodeError::TrailingWords);
    }
    Ok(out)
}

/// `payload` itself if it is a whole number of little-endian words.
pub(crate) fn whole_words(payload: &[u8]) -> Result<&[u8], DecodeError> {
    if payload.len().is_multiple_of(4) {
        Ok(payload)
    } else {
        Err(DecodeError::RaggedPayload)
    }
}

fn word_at(payload: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(payload.as_chunks::<4>().0[i])
}

/// The block [`Partition`] of `n` items a workload policy induces on
/// `tree` — the single source of the `c_j` fractions used by both the
/// schedule lowerings and the data placement.
#[expect(
    clippy::expect_used,
    reason = "a valid machine has a processor, speeds in (0, 1] and a leaf with r = 1 \
              (`every_valid_machine_has_a_partition`)"
)]
pub fn partition_for(tree: &MachineTree, n: u64, workload: WorkloadPolicy) -> Partition {
    match workload {
        WorkloadPolicy::Equal => Partition::equal(n, tree.num_procs()),
        WorkloadPolicy::Balanced => Partition::balanced_for(tree, n),
        WorkloadPolicy::CommAware => Partition::comm_aware_for(tree, n),
    }
    .expect("machine has at least one processor")
}

/// Split `items` into per-processor shares according to the workload
/// policy, returning each processor's [`Piece`] (indexed by rank).
pub fn shares_for(tree: &MachineTree, items: &[u32], workload: WorkloadPolicy) -> Vec<Piece> {
    let partition = partition_for(tree, items.len() as u64, workload);
    (0..tree.num_procs())
        .map(|i| {
            let range = partition.range(ProcId(i as u32));
            Piece {
                offset: range.start as u32,
                items: items[range.start as usize..range.end as usize].to_vec(),
            }
        })
        .collect()
}

/// Reassemble pieces into the global array. Pieces may arrive in any
/// order; they must tile `0..n` exactly.
///
/// # Panics
/// Panics if the pieces overlap or leave gaps.
pub fn reassemble(pieces: &[Piece]) -> Vec<u32> {
    let n: usize = pieces.iter().map(Piece::len).sum();
    let mut out = vec![None::<u32>; n];
    for p in pieces {
        for (i, &v) in p.items.iter().enumerate() {
            let slot = p.offset as usize + i;
            assert!(
                slot < n,
                "piece at offset {} overruns the array of {n}",
                p.offset
            );
            assert!(out[slot].is_none(), "overlapping pieces at index {slot}");
            out[slot] = Some(v);
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("gap at index {i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    /// `partition_for`'s invariant: every policy partitions any valid
    /// machine, down to the extremes validation admits (speeds near 0,
    /// `r` near overflow), into one share per processor covering `n`.
    #[test]
    fn every_valid_machine_has_a_partition() {
        let (tiny, huge) = (f64::MIN_POSITIVE, f64::MAX);
        let machines = [
            TreeBuilder::flat(1.0, 0.0, &[(1.0, tiny)]).unwrap(),
            TreeBuilder::flat(1.0, 0.0, &[(1.0, tiny), (huge, tiny), (huge, 1.0)]).unwrap(),
            TreeBuilder::two_level(
                1.0,
                5.0,
                &[(2.0, vec![(1.0, 1.0)]), (2.0, vec![(huge, tiny)])],
            )
            .unwrap(),
        ];
        let policies = [
            WorkloadPolicy::Equal,
            WorkloadPolicy::Balanced,
            WorkloadPolicy::CommAware,
        ];
        for t in &machines {
            for policy in policies {
                for n in [0, 1, 1000] {
                    let part = partition_for(t, n, policy);
                    assert_eq!(part.shares().len(), t.num_procs(), "{policy:?}");
                    assert_eq!(part.shares().iter().sum::<u64>(), n, "{policy:?}");
                }
            }
        }
    }

    #[test]
    fn piece_round_trip() {
        let p = Piece {
            offset: 1000,
            items: vec![1, 2, 3],
        };
        assert_eq!(Piece::decode(&p.encode()), Ok(p));
        let empty = Piece {
            offset: 5,
            items: vec![],
        };
        assert_eq!(Piece::decode(&empty.encode()), Ok(empty.clone()));
        assert!(empty.is_empty());
        assert_eq!(Piece::decode(&[]), Err(DecodeError::MissingOffset));
    }

    #[test]
    fn bundle_round_trip() {
        let pieces = vec![
            Piece {
                offset: 0,
                items: vec![1, 2, 3],
            },
            Piece {
                offset: 3,
                items: vec![],
            },
            Piece {
                offset: 3,
                items: vec![4],
            },
        ];
        assert_eq!(decode_bundle(&encode_bundle(&pieces)), Ok(pieces));
        assert_eq!(decode_bundle(&encode_bundle(&[])), Ok(vec![]));
    }

    #[test]
    fn malformed_bundles_are_typed_errors() {
        let well_formed = encode_bundle(&[Piece {
            offset: 0,
            items: vec![1, 2, 3],
        }]);
        // Cut into the piece body.
        let mut truncated = well_formed.clone();
        truncated.truncate(truncated.len() - 4);
        assert_eq!(decode_bundle(&truncated), Err(DecodeError::TruncatedBody));
        // Cut into the piece header.
        let mut headerless = well_formed.clone();
        headerless.truncate(8);
        assert_eq!(
            decode_bundle(&headerless),
            Err(DecodeError::TruncatedHeader)
        );
        // No count word at all.
        assert_eq!(decode_bundle(&[]), Err(DecodeError::MissingCount));
        // Extra words past the declared pieces.
        let mut trailing = well_formed;
        trailing.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(decode_bundle(&trailing), Err(DecodeError::TrailingWords));
    }

    #[test]
    fn shares_tile_the_input() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]).unwrap();
        let items: Vec<u32> = (0..100).collect();
        for wl in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
            let shares = shares_for(&t, &items, wl);
            assert_eq!(reassemble(&shares), items, "{wl:?}");
        }
    }

    #[test]
    fn balanced_shares_follow_speed() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (4.0, 0.25)]).unwrap();
        let items: Vec<u32> = (0..100).collect();
        let shares = shares_for(&t, &items, WorkloadPolicy::Balanced);
        assert_eq!(shares[0].len(), 80);
        assert_eq!(shares[1].len(), 20);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_detected() {
        reassemble(&[
            Piece {
                offset: 0,
                items: vec![1, 2],
            },
            Piece {
                offset: 1,
                items: vec![9, 9],
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn gap_detected_as_overrun() {
        // With piece lengths summing to n, a "gap" necessarily shows up
        // as an overrun or overlap (pigeonhole); the dedicated gap panic
        // is defense in depth.
        reassemble(&[
            Piece {
                offset: 0,
                items: vec![1],
            },
            Piece {
                offset: 2,
                items: vec![3],
            },
        ]);
    }
}
