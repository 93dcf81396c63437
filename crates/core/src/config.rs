//! Protocol configuration.

use bf_paillier::{ObfMode, PaillierMode};

/// Cryptographic backend selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Real Paillier with the given modulus size.
    Paillier {
        /// Modulus bits (≥ 256 recommended for experiments; ≥ 2048 for
        /// actual deployments).
        key_bits: usize,
    },
    /// Identity "encryption" — functional testing and the lossless
    /// model-quality experiments only (the protocols are lossless, so
    /// convergence behaviour is identical; see DESIGN.md §3).
    Plain,
}

/// How Party A's model gradients are handled — the Figure 9 ablation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GradMode {
    /// The real protocol: `∇W_A` stays secret-shared, both pieces
    /// updated in the SS manner (`w/ ModelSS & w/ GradSS`).
    SecretShared,
    /// Ablation: `W_A` is secret-shared at initialisation, but Party A
    /// receives `∇W_A` in plaintext and updates `U_A` alone while
    /// `V_A` stays frozen at `v_scale ×` its normal magnitude
    /// (`w/ ModelSS & w/o GradSS, ‖V_A‖ = v_scale·‖U_A‖`). The paper
    /// shows this still leaks labels.
    PlainGradToA {
        /// Frozen-piece magnitude multiplier.
        v_scale: f64,
    },
}

/// Full protocol configuration, shared by both parties.
#[derive(Clone, Debug)]
pub struct FedConfig {
    /// Crypto backend.
    pub backend: Backend,
    /// Fixed-point fractional bits.
    pub frac_bits: u32,
    /// Encryption-randomness strategy.
    pub obf_mode: ObfMode,
    /// Ciphertext layout for uploads: [`PaillierMode::Packed`] packs
    /// several fixed-point values per ciphertext on shapes/keys that
    /// allow it (falling back to scalar otherwise); decodes are
    /// bit-identical either way. Must match on both parties.
    pub paillier_mode: PaillierMode,
    /// Magnitude of the ephemeral HE2SS masks (`ε, φ, ξ, ρ`).
    pub he_mask: f64,
    /// Gradient handling (Figure 9 ablation hook).
    pub grad_mode: GradMode,
    /// Learning rate `η` (source layers apply it inside the SS update).
    pub lr: f64,
    /// Momentum `μ` (applied lazily per piece; linear, so the shared
    /// weight follows exact momentum SGD on the touched rows).
    pub momentum: f64,
}

impl FedConfig {
    /// Paper defaults with a laptop-scale Paillier modulus.
    pub fn paillier_default() -> Self {
        Self {
            backend: Backend::Paillier {
                key_bits: bf_paillier::DEFAULT_KEY_BITS,
            },
            frac_bits: bf_paillier::DEFAULT_FRAC_BITS,
            obf_mode: ObfMode::Pool(32),
            paillier_mode: PaillierMode::Packed,
            he_mask: 1e4,
            grad_mode: GradMode::SecretShared,
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// Small-key Paillier for fast unit tests.
    pub fn paillier_test() -> Self {
        Self {
            backend: Backend::Paillier { key_bits: 256 },
            frac_bits: 24,
            obf_mode: ObfMode::Pool(8),
            paillier_mode: PaillierMode::Packed,
            he_mask: 100.0,
            grad_mode: GradMode::SecretShared,
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// Plain backend (fastest; lossless semantics preserved).
    pub fn plain() -> Self {
        Self {
            backend: Backend::Plain,
            frac_bits: bf_paillier::DEFAULT_FRAC_BITS,
            obf_mode: ObfMode::Pool(2),
            paillier_mode: PaillierMode::Scalar,
            he_mask: 1e4,
            grad_mode: GradMode::SecretShared,
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// Builder-style learning-rate override.
    pub fn with_lr(mut self, lr: f64) -> Self {
        self.lr = lr;
        self
    }

    /// Builder-style gradient-mode override.
    pub fn with_grad_mode(mut self, mode: GradMode) -> Self {
        self.grad_mode = mode;
        self
    }

    /// Builder-style ciphertext-layout override.
    pub fn with_paillier_mode(mut self, mode: PaillierMode) -> Self {
        self.paillier_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_hparams() {
        let c = FedConfig::paillier_default();
        assert_eq!(c.lr, 0.05);
        assert_eq!(c.momentum, 0.9);
        assert_eq!(c.grad_mode, GradMode::SecretShared);
    }

    #[test]
    fn builders() {
        let c = FedConfig::plain()
            .with_lr(0.1)
            .with_grad_mode(GradMode::PlainGradToA { v_scale: 5.0 });
        assert_eq!(c.lr, 0.1);
        assert!(matches!(c.grad_mode, GradMode::PlainGradToA { .. }));
    }
}
