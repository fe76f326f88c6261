//! # hbsp-bench — the paper's experiments, regenerated
//!
//! Section 5 of the paper evaluates the HBSP^1 collectives on a
//! non-dedicated cluster of ten SUN and SGI workstations (100 Mbit/s
//! Ethernet), ranking processors with BYTEmark and reporting
//! *improvement factors* over 100–1000 KB inputs. This crate rebuilds
//! that evaluation on the simulated testbed:
//!
//! * [`mod@testbed`] — the ten-machine simulated cluster, ranked by the
//!   `bytemark` suite, plus HBSP^2 variants for the hierarchical
//!   analyses;
//! * [`experiments`] — drivers for every figure/table:
//!   E1/E2 (Figure 3a/3b — gather), E3/E4 (Figure 4a/4b — broadcast),
//!   E5 (Table 1 parameters), E6/E7 (§4.4 one- vs two-phase
//!   crossovers), E8 (§4.3 HBSP^2 amortization), E9 (cost-model
//!   accuracy);
//! * [`figures`] — plain-text table/series rendering for the binaries.
//!
//! The `hbsp_experiments` binary (`src/bin/`) prints any of them as a
//! regenerated figure or table.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod jobfile;
pub mod testbed;

pub use experiments::{
    barrier_scope_ablation, broadcast_crossover, hbsp2_amortization, hbsp2_phase_study,
    model_accuracy, AccuracyRow, AmortizationRow, CrossoverRow, Hbsp2PhaseRow,
};
pub use experiments::{
    broadcast_balance_improvement, broadcast_root_improvement, gather_balance_improvement,
    gather_comm_aware_improvement, gather_root_improvement, FigurePoint,
};
pub use testbed::{
    hbsp2_testbed, input_kb, items_for_kb, testbed, ucf_profiles, PAPER_SIZES_KB, TESTBED_PS,
};
