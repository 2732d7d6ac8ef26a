//! The paper's general congestion-control model (§IV, Equation (3)) and its
//! per-algorithm parameter decompositions.
//!
//! Equation (3) writes every window-based multipath algorithm as
//!
//! ```text
//! dx_r/dt = ψ_r(x)·x_r² / (RTT_r²·(Σ_k x_k)²) − β_r(x)·λ_r·x_r² − φ_r(x)
//! ```
//!
//! with a traffic-shifting parameter `ψ_r`, a decrease parameter `β_r`, a
//! congestion signal `λ_r`, and a compensative parameter `φ_r`. The paper's
//! §IV table of decompositions is reproduced here as [`Psi`] variants; the
//! `congestion` crate's per-ACK implementations and these fluid forms are
//! cross-validated in the test suite.
//!
//! There is one evaluation of Equation (3), split by what each term depends
//! on:
//!
//! * `PathTerms` — the terms that depend only on a path's RTTs (`RTT_r²`,
//!   DTS's `c·ε_r`, ecMTCP's `RTT_r³`, DTS-Φ's price gradient). The fluid
//!   solver builds them once per topology, i.e. once per hybrid epoch.
//! * `FlowTerms` — the per-flow aggregates of a state (`Σx`, `Σw`,
//!   `max x`, LIA's `max_k w_k/RTT_k²`, `n·min RTT`, `√n`), built once per
//!   flow per field evaluation.
//! * `CcModel::rate` — the per-path combine.
//!
//! [`Psi::eval`], [`Phi::eval`] and [`CcModel::dxdt`] are thin views over the
//! same three parts. Every expression keeps the rounding order of the
//! paper's formula as written, so hoisting a term never changes a bit; the
//! test oracle (`tests/support/oracle.rs`) writes the formulas out verbatim
//! and the fluid tests pin the solver to it with `to_bits()`.

use crate::dts::DtsConfig;
use crate::dts_phi::DtsPhiConfig;

/// A read-only view of one multipath user's state for parameter evaluation.
#[derive(Clone, Copy, Debug)]
pub struct FlowView<'a> {
    /// Per-path send rates `x_r` (packets/second).
    pub x: &'a [f64],
    /// Per-path round-trip times (seconds).
    pub rtt: &'a [f64],
    /// Per-path minimum RTTs (seconds).
    pub base_rtt: &'a [f64],
}

impl FlowView<'_> {
    /// Number of paths.
    pub fn n(&self) -> usize {
        self.x.len()
    }
}

/// The terms of Equation (3) for one path that depend only on its RTT and
/// base RTT, so they are constant for as long as the RTTs are.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PathTerms {
    /// `RTT_r·RTT_r`.
    rtt2: f64,
    /// The RTT-only factor of `ψ_r`: `c·ε_r` for DTS, `RTT_r³` for ecMTCP,
    /// 1 otherwise.
    psi: f64,
    /// The energy-price gradient `ρ + η·(d̂_r − D)⁺/D` (0 for `Phi::Zero`).
    phi_grad: f64,
}

impl PathTerms {
    /// The constants of a path with the given RTTs under `model`.
    pub(crate) fn new(model: &CcModel, rtt: f64, base_rtt: f64) -> Self {
        PathTerms {
            rtt2: rtt * rtt,
            psi: model.psi.path_factor(rtt, base_rtt),
            phi_grad: model.phi.gradient(rtt, base_rtt),
        }
    }
}

/// The per-flow aggregates of Equation (3) at one state. Only the
/// aggregates the flow's [`Psi`] reads are computed; the rest stay 0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct FlowTerms {
    /// `Σ_k x_k`.
    sum_x: f64,
    /// `Σ_k w_k` (Coupled, ecMTCP).
    sum_w: f64,
    /// `max_k x_k` (Balia).
    max_x: f64,
    /// `max_k w_k/RTT_k²` (LIA).
    lia_best: f64,
    /// `n·min_k RTT_k` (ecMTCP).
    n_min_rtt: f64,
    /// `√n` (EWTCP).
    sqrt_n: f64,
}

impl FlowTerms {
    /// The aggregates `psi` reads, of the state `x` over paths with RTTs
    /// `rtt`.
    #[inline]
    pub(crate) fn of(psi: &Psi, x: &[f64], rtt: &[f64]) -> Self {
        let n = x.len() as f64;
        let sum_w = || x.iter().zip(rtt).map(|(x, r)| x * r).sum();
        let mut t = FlowTerms { sum_x: x.iter().sum(), ..FlowTerms::default() };
        match psi {
            Psi::Ewtcp => t.sqrt_n = n.sqrt(),
            Psi::Coupled => t.sum_w = sum_w(),
            Psi::Lia => {
                t.lia_best = x.iter().zip(rtt).map(|(x, r)| x * r / (r * r)).fold(0.0, f64::max);
            }
            Psi::Balia => t.max_x = x.iter().copied().fold(0.0, f64::max),
            Psi::EcMtcp => {
                t.sum_w = sum_w();
                t.n_min_rtt = n * rtt.iter().copied().fold(f64::INFINITY, f64::min);
            }
            Psi::Olia | Psi::Dts(_) => {}
        }
        t
    }
}

/// The traffic-shifting parameter `ψ_r` of each algorithm, exactly as the
/// paper's §IV decomposition table states them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Psi {
    /// EWTCP: `ψ_r = (Σx)² / (x_r²·√n)`.
    Ewtcp,
    /// Coupled (Kelly/Voice): `ψ_r = RTT_r²(Σx)²/(Σw)²`.
    Coupled,
    /// LIA: `ψ_r = max_k(w_k/RTT_k²)·RTT_r²/w_r`.
    Lia,
    /// OLIA: `ψ_r = 1` (the Pareto-optimal base).
    Olia,
    /// Balia: `ψ_r = 2/5 + α/2 + α²/10` with `α = max_k x_k / x_r`.
    Balia,
    /// ecMTCP: `ψ_r = RTT_r³(Σx)²/(n·min_k RTT_k·w_r·Σw)`.
    EcMtcp,
    /// DTS (this paper): `ψ_r = c·ε_r` with the Equation (5) sigmoid.
    Dts(DtsConfig),
}

impl Psi {
    /// Evaluates `ψ_r` on the given state.
    pub fn eval(&self, r: usize, v: &FlowView<'_>) -> f64 {
        let p = PathTerms::new(&CcModel::loss_based(*self), v.rtt[r], v.base_rtt[r]);
        self.combine(v.x[r], v.rtt[r], &p, &FlowTerms::of(self, v.x, v.rtt))
    }

    /// The RTT-only factor of `ψ_r` (see `PathTerms`).
    fn path_factor(&self, rtt: f64, base_rtt: f64) -> f64 {
        match self {
            Psi::Dts(cfg) => cfg.c * cfg.epsilon((base_rtt / rtt).clamp(0.0, 1.0)),
            Psi::EcMtcp => rtt.powi(3),
            Psi::Ewtcp | Psi::Coupled | Psi::Lia | Psi::Olia | Psi::Balia => 1.0,
        }
    }

    /// `ψ_r` from path `r`'s rate, RTT and constants and its flow's
    /// aggregates. `w_r` is formed as `x_r·RTT_r`, as the table writes it.
    #[inline]
    fn combine(&self, x: f64, rtt: f64, p: &PathTerms, f: &FlowTerms) -> f64 {
        match self {
            Psi::Ewtcp => (f.sum_x * f.sum_x) / (x * x * f.sqrt_n),
            Psi::Coupled => p.rtt2 * f.sum_x * f.sum_x / (f.sum_w * f.sum_w),
            // `(best·RTT_r)·RTT_r`, not `best·RTT_r²`: that rounds differently.
            Psi::Lia => f.lia_best * rtt * rtt / (x * rtt),
            Psi::Olia | Psi::Dts(_) => p.psi,
            Psi::Balia => {
                let alpha = (f.max_x / x).max(1.0);
                0.4 + alpha / 2.0 + alpha * alpha / 10.0
            }
            Psi::EcMtcp => p.psi * f.sum_x * f.sum_x / (f.n_min_rtt * (x * rtt) * f.sum_w),
        }
    }

    /// The human-readable algorithm name.
    pub fn name(&self) -> &'static str {
        match self {
            Psi::Ewtcp => "ewtcp",
            Psi::Coupled => "coupled",
            Psi::Lia => "lia",
            Psi::Olia => "olia",
            Psi::Balia => "balia",
            Psi::EcMtcp => "ecmtcp",
            Psi::Dts(_) => "dts",
        }
    }
}

/// The compensative parameter `φ_r`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phi {
    /// `φ_r = 0` — all the §IV baseline algorithms.
    Zero,
    /// The §V-C energy price `φ_r = κ·x_r²·(ρ + η·(d̂_r − D)⁺/D)` with the
    /// path queueing delay `d̂_r = RTT_r − baseRTT_r`.
    EnergyPrice(DtsPhiConfig),
}

impl Phi {
    /// Evaluates `φ_r` on the given state.
    pub fn eval(&self, r: usize, v: &FlowView<'_>) -> f64 {
        self.combine(v.x[r], self.gradient(v.rtt[r], v.base_rtt[r]))
    }

    /// The RTT-only gradient `ρ + η·(d̂_r − D)⁺/D` (see `PathTerms`).
    fn gradient(&self, rtt: f64, base_rtt: f64) -> f64 {
        match self {
            Phi::Zero => 0.0,
            Phi::EnergyPrice(cfg) => {
                let d_hat = (rtt - base_rtt).max(0.0);
                let excess = (d_hat - cfg.queue_target_s).max(0.0);
                cfg.rho + cfg.eta * excess / cfg.queue_target_s
            }
        }
    }

    #[inline]
    fn combine(&self, x: f64, grad: f64) -> f64 {
        match self {
            Phi::Zero => 0.0,
            Phi::EnergyPrice(cfg) => cfg.kappa * x * x * grad,
        }
    }
}

/// A fully specified instance of Equation (3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcModel {
    /// Traffic-shifting parameter.
    pub psi: Psi,
    /// Decrease parameter `β` (½ for every loss-based algorithm here).
    pub beta: f64,
    /// Compensative parameter.
    pub phi: Phi,
}

impl CcModel {
    /// The standard loss-based model with `β = ½`, `φ = 0`.
    pub fn loss_based(psi: Psi) -> Self {
        CcModel { psi, beta: 0.5, phi: Phi::Zero }
    }

    /// The paper's DTS model (Equation (5) inside Equation (3)).
    pub fn dts(cfg: DtsConfig) -> Self {
        CcModel::loss_based(Psi::Dts(cfg))
    }

    /// The paper's extended DTS-Φ model (Equation (9)).
    pub fn dts_phi(cfg: DtsPhiConfig) -> Self {
        CcModel { psi: Psi::Dts(cfg.dts), beta: 0.5, phi: Phi::EnergyPrice(cfg) }
    }

    /// `dx_r/dt` per Equation (3) given the congestion signal `λ_r`.
    pub fn dxdt(&self, r: usize, v: &FlowView<'_>, lambda_r: f64) -> f64 {
        let p = PathTerms::new(self, v.rtt[r], v.base_rtt[r]);
        self.rate(v.x[r], v.rtt[r], &p, &FlowTerms::of(&self.psi, v.x, v.rtt), lambda_r)
    }

    /// `dx_r/dt` of one path from its rate, RTT, constants, its flow's
    /// aggregates and its congestion signal `λ_r`.
    #[inline]
    pub(crate) fn rate(
        &self,
        x: f64,
        rtt: f64,
        p: &PathTerms,
        f: &FlowTerms,
        lambda_r: f64,
    ) -> f64 {
        if f.sum_x <= 0.0 {
            return 0.0;
        }
        let inc = self.psi.combine(x, rtt, p, f) * x * x / (p.rtt2 * f.sum_x * f.sum_x);
        let dec = self.beta * lambda_r * x * x;
        inc - dec - self.phi.combine(x, p.phi_grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dts::epsilon_fixed_point;
    use crate::oracle;

    fn view<'a>(x: &'a [f64], rtt: &'a [f64]) -> FlowView<'a> {
        FlowView { x, rtt, base_rtt: rtt }
    }

    #[test]
    fn all_psi_reduce_to_one_on_single_symmetric_path() {
        // On one path at equilibrium every TCP-friendly ψ must be 1 (Reno).
        let x = [100.0];
        let rtt = [0.1];
        let v = view(&x, &rtt);
        for psi in [Psi::Ewtcp, Psi::Coupled, Psi::Lia, Psi::Olia, Psi::Balia, Psi::EcMtcp] {
            let val = psi.eval(0, &v);
            assert!((val - 1.0).abs() < 1e-9, "{}: {val}", psi.name());
        }
    }

    #[test]
    fn psi_values_on_two_equal_paths() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.1];
        let v = view(&x, &rtt);
        // EWTCP: (200)²/(100²·√2) = 4/√2 = 2.828.
        assert!((Psi::Ewtcp.eval(0, &v) - 4.0 / 2f64.sqrt()).abs() < 1e-9);
        // Coupled: 0.01·4e4/(20·20)·... w = 10 each, Σw = 20:
        // 0.01·40000/400 = 1.
        assert!((Psi::Coupled.eval(0, &v) - 1.0).abs() < 1e-9);
        // LIA: best = 10/0.01 = 1000; 1000·0.01/10 = 1.
        assert!((Psi::Lia.eval(0, &v) - 1.0).abs() < 1e-9);
        // Balia: α = 1 → 0.4+0.5+0.1 = 1.
        assert!((Psi::Balia.eval(0, &v) - 1.0).abs() < 1e-9);
        // ecMTCP: 0.001·4e4/(2·0.1·10·20) = 40/40 = 1.
        assert!((Psi::EcMtcp.eval(0, &v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dts_psi_tracks_rtt_ratio() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.2];
        let base = [0.1, 0.1];
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        let psi = Psi::Dts(DtsConfig::default());
        let good = psi.eval(0, &v); // ratio 1
        let bad = psi.eval(1, &v); // ratio 0.5
        assert!(good > 1.9 && (bad - 1.0).abs() < 1e-9, "good {good} bad {bad}");
    }

    #[test]
    fn phi_energy_price_scales_with_rate_squared() {
        let cfg = DtsPhiConfig::default();
        let phi = Phi::EnergyPrice(cfg);
        let x1 = [100.0];
        let x2 = [200.0];
        let rtt = [0.1];
        let p1 = phi.eval(0, &view(&x1, &rtt));
        let p2 = phi.eval(0, &view(&x2, &rtt));
        // No queue excess (rtt == base): gradient is ρ; φ ∝ x².
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dxdt_zero_at_reno_equilibrium() {
        // Single Reno path: equilibrium x* = √(2ψ/λ)/RTT. With ψ=1, λ chosen
        // so x* = 100: λ = 2/(x*·RTT)² = 2/100.
        let model = CcModel::loss_based(Psi::Olia);
        let x = [100.0];
        let rtt = [0.1];
        let lambda = 2.0 / (100.0f64 * 0.1).powi(2);
        let d = model.dxdt(0, &view(&x, &rtt), lambda);
        assert!(d.abs() < 1e-9, "dxdt {d}");
    }

    #[test]
    fn every_variant_matches_the_verbatim_oracle_bit_for_bit() {
        // Psi::eval, Phi::eval and dxdt go through the same split terms as
        // the solver; on unequal rates and inflated RTTs they must reproduce
        // the paper's formulas as written, bit for bit.
        let models = oracle::all_models();
        // Rates whose products round, so a reassociated formula shows.
        let states = [[137.3, 3.17, 1.0, 911.7], [41.9, 7.3, 219.1, 1.7], [1.1, 65.3, 5.9, 3.3]];
        let rtt = [0.031, 0.2, 0.0125, 0.0875];
        let base = [0.02, 0.07, 0.0125, 0.05];
        for (model, x) in models.iter().flat_map(|m| states.iter().map(move |x| (m, x))) {
            let v = FlowView { x, rtt: &rtt, base_rtt: &base };
            for r in 0..x.len() {
                let bits = |a: f64, b: f64, what: &str| {
                    assert_eq!(a.to_bits(), b.to_bits(), "{model:?} {what} path {r}: {a} vs {b}");
                };
                bits(model.psi.eval(r, &v), oracle::psi(&model.psi, r, &v), "psi");
                bits(model.phi.eval(r, &v), oracle::phi(&model.phi, r, &v), "phi");
                for lambda in [0.0, 3e-4, 0.9] {
                    bits(model.dxdt(r, &v, lambda), oracle::dxdt(model, r, &v, lambda), "dxdt");
                }
            }
        }
    }

    #[test]
    fn fixed_point_dts_psi_uses_the_kernel_epsilon() {
        // A fixed-point DTS flow keeps Algorithm 1's ε in the fluid regime,
        // as the packet-level Dts does.
        let cfg = DtsConfig { c: 1.5, fixed_point: true, ..DtsConfig::default() };
        let x = [100.0, 40.0];
        let rtt = [0.1, 0.3];
        let base = [0.08, 0.12];
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        for r in 0..2 {
            let ratio = base[r] / rtt[r];
            let want = cfg.c * epsilon_fixed_point(ratio);
            assert_eq!(Psi::Dts(cfg).eval(r, &v).to_bits(), want.to_bits(), "path {r}");
            let exact = cfg.c * crate::dts::epsilon_exact(ratio, cfg.slope, cfg.midpoint);
            assert!((want - exact).abs() > 1e-6, "ratio {ratio} does not tell the forms apart");
        }
    }
}
