//! HUFFMAN: build a Huffman code over random text, compress, decompress.

use super::{checksum, Kernel};
use crate::rng::SplitMix64;

/// Huffman round-trip benchmark over `len` bytes of skewed random text.
#[derive(Debug, Clone)]
pub struct Huffman {
    len: usize,
}

impl Huffman {
    /// Compress/decompress `len` bytes.
    pub fn new(len: usize) -> Self {
        assert!(len > 0);
        Huffman { len }
    }
}

impl Default for Huffman {
    fn default() -> Self {
        Huffman::new(16 * 1024)
    }
}

#[derive(Debug, Clone)]
enum Tree {
    Leaf(u8),
    Node(Box<Tree>, Box<Tree>),
}

/// Build a canonical Huffman tree for the given byte frequencies.
/// Symbols with zero frequency are excluded; at least one symbol must be
/// present. Deterministic: ties are broken by symbol value.
fn build_tree(freq: &[u64; 256]) -> Tree {
    // (weight, tiebreak, tree) min-heap via sorted Vec (256 symbols max,
    // simplicity over asymptotics).
    let mut heap: Vec<(u64, u32, Tree)> = freq
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(s, &f)| (f, s as u32, Tree::Leaf(s as u8)))
        .collect();
    let mut next_tag = 256u32;
    loop {
        heap.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
        match (heap.pop(), heap.pop()) {
            (Some((w1, _, t1)), Some((w2, _, t2))) => {
                heap.push((w1 + w2, next_tag, Tree::Node(Box::new(t1), Box::new(t2))));
                next_tag += 1;
            }
            // Degenerate: single symbol; give it a 1-bit code by
            // pairing the leaf with a copy of itself.
            (Some((_, _, leaf @ Tree::Leaf(_))), None) => {
                let twin = leaf.clone();
                return Tree::Node(Box::new(leaf), Box::new(twin));
            }
            (Some((_, _, root)), None) => return root,
            (None, _) => panic!("cannot build a code for empty input"),
        }
    }
}

/// Each symbol's `(code, length)`; `(0, 0)` for a symbol the tree does
/// not hold.
fn codes(tree: &Tree) -> Vec<(u32, u8)> {
    let mut table = vec![(0, 0); 256];
    fn walk(t: &Tree, code: u32, len: u8, table: &mut Vec<(u32, u8)>) {
        match t {
            Tree::Leaf(s) => table[*s as usize] = (code, len.max(1)),
            Tree::Node(l, r) => {
                walk(l, code << 1, len + 1, table);
                walk(r, (code << 1) | 1, len + 1, table);
            }
        }
    }
    walk(tree, 0, 0, &mut table);
    table
}

/// An opaque Huffman codebook produced by [`compress`] and consumed by
/// [`decompress`].
#[derive(Debug, Clone)]
pub struct Codebook {
    tree: Tree,
}

/// Huffman-compress `input`. Returns `(bits, bit_len, codebook)` for
/// [`decompress`].
pub fn compress(input: &[u8]) -> (Vec<u8>, usize, Codebook) {
    let mut freq = [0u64; 256];
    for &b in input {
        freq[b as usize] += 1;
    }
    let tree = build_tree(&freq);
    let table = codes(&tree);
    let mut out = Vec::with_capacity(input.len() / 2);
    let mut cur = 0u8;
    let mut used = 0u8;
    let mut bit_len = 0usize;
    for &b in input {
        // Every input byte has a code: the tree is built from its counts.
        let (code, len) = table[b as usize];
        for i in (0..len).rev() {
            cur = (cur << 1) | ((code >> i) & 1) as u8;
            used += 1;
            bit_len += 1;
            if used == 8 {
                out.push(cur);
                cur = 0;
                used = 0;
            }
        }
    }
    if used > 0 {
        out.push(cur << (8 - used));
    }
    (out, bit_len, Codebook { tree })
}

/// Decompress `bit_len` bits from `bits` using the codebook returned by
/// [`compress`].
pub fn decompress(bits: &[u8], bit_len: usize, book: &Codebook, expect: usize) -> Vec<u8> {
    let tree = &book.tree;
    let mut out = Vec::with_capacity(expect);
    let mut node = tree;
    for i in 0..bit_len {
        let bit = (bits[i / 8] >> (7 - i % 8)) & 1;
        node = match node {
            Tree::Node(l, r) => {
                if bit == 0 {
                    l
                } else {
                    r
                }
            }
            Tree::Leaf(_) => unreachable!("walk starts at root"),
        };
        if let Tree::Leaf(s) = node {
            out.push(*s);
            node = tree;
        }
    }
    out
}

impl Kernel for Huffman {
    fn name(&self) -> &'static str {
        "HUFFMAN"
    }

    fn ops(&self) -> u64 {
        // ~ 6 bit-ops per input bit round trip.
        (self.len as u64) * 8 * 6
    }

    fn run(&self, seed: u64) -> u64 {
        let mut rng = SplitMix64::new(seed);
        // Skewed text: common letters dominate, like English.
        let input: Vec<u8> = (0..self.len)
            .map(|_| {
                let r = rng.next_below(100);
                match r {
                    0..=39 => b'e',
                    40..=59 => b't',
                    60..=74 => b'a',
                    75..=84 => b' ',
                    _ => b'a' + (rng.next_below(26)) as u8,
                }
            })
            .collect();
        let (bits, bit_len, tree) = compress(&input);
        let out = decompress(&bits, bit_len, &tree, input.len());
        assert_eq!(out, input, "huffman round trip");
        checksum(bits.chunks(8).map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_random_text() {
        let mut rng = SplitMix64::new(21);
        let input: Vec<u8> = (0..5000).map(|_| rng.next_below(64) as u8).collect();
        let (bits, bit_len, tree) = compress(&input);
        assert_eq!(decompress(&bits, bit_len, &tree, input.len()), input);
    }

    #[test]
    fn skewed_text_compresses() {
        let input: Vec<u8> = std::iter::repeat_n(b'e', 900)
            .chain(std::iter::repeat_n(b'z', 100))
            .collect();
        let (bits, _, _) = compress(&input);
        assert!(
            bits.len() < input.len() / 4,
            "90/10 split should compress >4x, got {}",
            bits.len()
        );
    }

    #[test]
    fn single_symbol_input() {
        let input = vec![b'x'; 100];
        let (bits, bit_len, tree) = compress(&input);
        assert_eq!(bit_len, 100, "one bit per symbol in degenerate code");
        assert_eq!(decompress(&bits, bit_len, &tree, 100), input);
    }

    #[test]
    fn one_byte_input() {
        let input = vec![7u8];
        let (bits, bit_len, tree) = compress(&input);
        assert_eq!(decompress(&bits, bit_len, &tree, 1), input);
    }
}
