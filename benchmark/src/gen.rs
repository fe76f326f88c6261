//! Input generation: every input is a pure function of `--seed`.
//!
//! The library never sees the seed, only the generated data. Sizes are
//! fixed per workload, so runs with different seeds do the same amount
//! of work on different bytes.

/// splitmix64: small, seedable, and good enough for benchmark payloads.
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of `seed`, so each input of a
    /// workload has its own sequence whatever order they are drawn in.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn u32s(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| (self.next_u64() >> 32) as u32).collect()
    }

    /// Uniform in `[-1, 1)`, from the top 53 bits.
    pub fn f64s(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            .collect()
    }
}

/// Problem sizes of one collective sweep, in `u32` words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollSizes {
    /// Total items for gather, broadcast, scatter and allgather.
    pub n: usize,
    /// Vector length per processor for reduce and scan.
    pub veclen: usize,
    /// Words per ordered pair for alltoall.
    pub block: usize,
}

impl CollSizes {
    /// The paper's §5 regime: 1000 KB of `u32` total input across an
    /// 8-processor machine for every kind.
    pub const KB1000: CollSizes = CollSizes {
        n: 256_000,
        veclen: 32_000,
        block: 4_000,
    };
    /// The latency-bound counterpart (1 KB total) for the raw
    /// h-relation micro-benchmarks.
    pub const KB1: CollSizes = CollSizes {
        n: 256,
        veclen: 32,
        block: 4,
    };
}

/// The data one sweep of the seven collectives moves.
#[derive(Debug, Clone, PartialEq)]
pub struct CollInputs {
    pub sizes: CollSizes,
    pub items: Vec<u32>,
    /// `vectors[rank]`, all of length `veclen`.
    pub vectors: Vec<Vec<u32>>,
    /// `blocks[src][dst]`; the diagonal is empty (no self-sends).
    pub blocks: Vec<Vec<Vec<u32>>>,
}

pub fn coll_inputs(seed: u64, p: usize, sizes: CollSizes) -> CollInputs {
    let items = Rng::stream(seed, 1).u32s(sizes.n);
    let mut rng = Rng::stream(seed, 2);
    let vectors = (0..p).map(|_| rng.u32s(sizes.veclen)).collect();
    let mut rng = Rng::stream(seed, 3);
    let blocks = (0..p)
        .map(|src| {
            (0..p)
                .map(|dst| {
                    if src == dst {
                        Vec::new()
                    } else {
                        rng.u32s(sizes.block)
                    }
                })
                .collect()
        })
        .collect();
    CollInputs {
        sizes,
        items,
        vectors,
        blocks,
    }
}

/// Problem sizes of the application workload.
#[derive(Debug, Clone, Copy)]
pub struct AppSizes {
    pub sort_n: usize,
    /// The matrix is `matvec_n × matvec_n`.
    pub matvec_n: usize,
    pub stencil_cells: usize,
    pub stencil_iters: usize,
}

impl AppSizes {
    pub const FULL: AppSizes = AppSizes {
        sort_n: 256_000,
        matvec_n: 1000,
        stencil_cells: 128_000,
        stencil_iters: 50,
    };
}

#[derive(Debug, Clone, PartialEq)]
pub struct AppInputs {
    pub sort_items: Vec<u32>,
    pub matrix: Vec<f64>,
    pub x: Vec<f64>,
    pub field: Vec<f64>,
}

pub fn app_inputs(seed: u64, sizes: AppSizes) -> AppInputs {
    let n = sizes.matvec_n;
    AppInputs {
        sort_items: Rng::stream(seed, 11).u32s(sizes.sort_n),
        matrix: Rng::stream(seed, 12).f64s(n * n),
        x: Rng::stream(seed, 13).f64s(n),
        field: Rng::stream(seed, 14).f64s(sizes.stencil_cells),
    }
}

/// The per-job seed the drain workloads write over the fixture's
/// `seed=`: the DAG shape stays the committed one, the payload bytes
/// follow `--seed`.
pub fn job_seed(seed: u64, fixture_seed: u64, job: usize) -> u64 {
    Rng::stream(seed ^ fixture_seed, 21 + job as u64).next_u64()
}
