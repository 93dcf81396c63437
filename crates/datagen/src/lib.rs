//! Synthetic dataset generators matched to the BlindFL evaluation.
//!
//! The paper evaluates on six LIBSVM datasets, one industrial
//! advertising dataset, and Fashion-MNIST (Table 4 / Table 6). None of
//! those can ship with this repository, so — per the substitution rule
//! in DESIGN.md §5 — each is replaced by a generator that reproduces
//! the *shape statistics* the evaluation depends on:
//!
//! * dimensionality and average non-zeros per row (⇒ sparsity, which
//!   drives the Table 5 cost comparison),
//! * class count and feature type (numerical / categorical),
//! * a planted ground-truth model whose signal spans **both** parties'
//!   feature halves, so that `NonFed-Party B < BlindFL ≈
//!   NonFed-collocated` (the Figure 12 ordering) is a property of the
//!   data, not an accident.
//!
//! [`catalog`](mod@catalog) lists the paper-scale specs (printed by the Table 4
//! harness); [`DatasetSpec::scaled`] produces laptop-scale variants used
//! by the experiment harnesses (documented in `docs/REPRODUCING.md`).

pub mod catalog;
pub mod split;
pub mod synth;

pub use catalog::{catalog, spec, DatasetSpec, Shape};
pub use split::{
    sample_id, vsplit, vsplit_misaligned, vsplit_misaligned_multi, vsplit_multi,
    MisalignedMultiVflData, MisalignedParty, MisalignedVflData, MultiVflData, VflData, VflView,
};
pub use synth::{generate, generate_tree};
