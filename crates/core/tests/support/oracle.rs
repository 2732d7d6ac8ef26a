//! Test oracle for Equation (3) and the fluid RK4 step.
//!
//! The paper's §IV decomposition table, the §V-C energy price and the
//! constantly-extended RK4 step, written out verbatim: every term is
//! recomputed from the raw state on every call, with no hoisting, caching or
//! per-flow sharing. The production kernel (`model.rs` + `fluid.rs`) splits
//! the same formulas into per-path constants, per-flow aggregates and a
//! per-path combine, and must reproduce this file bit for bit.
//!
//! Shared by the crate's unit tests (`#[path]`-included from `lib.rs`) and
//! the workspace property tests (`tests/properties.rs`).

use mptcp_energy::fluid::X_MIN;
use mptcp_energy::{
    epsilon_exact, epsilon_fixed_point, CcModel, DtsConfig, DtsPhiConfig, FlowView, FluidLink,
    FluidNet, Phi, Psi,
};

/// Every ψ × φ variant of Equation (3), DTS in both ε forms.
pub fn all_models() -> Vec<CcModel> {
    let fixed = DtsConfig { fixed_point: true, ..DtsConfig::default() };
    let psis = [
        Psi::Ewtcp,
        Psi::Coupled,
        Psi::Lia,
        Psi::Olia,
        Psi::Balia,
        Psi::EcMtcp,
        Psi::Dts(DtsConfig::default()),
        Psi::Dts(fixed),
    ];
    let mut models: Vec<CcModel> = psis.into_iter().map(CcModel::loss_based).collect();
    models.push(CcModel::dts_phi(DtsPhiConfig::default()));
    models
}

/// `ψ_r` exactly as the §IV table states it.
pub fn psi(psi: &Psi, r: usize, v: &FlowView<'_>) -> f64 {
    let n = v.n() as f64;
    let w = |k: usize| v.x[k] * v.rtt[k];
    let sum_x = || -> f64 { v.x.iter().sum() };
    let sum_w = || -> f64 { (0..v.n()).map(w).sum() };
    match psi {
        Psi::Ewtcp => {
            let sx = sum_x();
            (sx * sx) / (v.x[r] * v.x[r] * n.sqrt())
        }
        Psi::Coupled => {
            let sx = sum_x();
            let sw = sum_w();
            v.rtt[r] * v.rtt[r] * sx * sx / (sw * sw)
        }
        Psi::Lia => {
            let best = (0..v.n()).map(|k| w(k) / (v.rtt[k] * v.rtt[k])).fold(0.0f64, f64::max);
            best * v.rtt[r] * v.rtt[r] / w(r)
        }
        Psi::Olia => 1.0,
        Psi::Balia => {
            let max_x = v.x.iter().copied().fold(0.0, f64::max);
            let alpha = (max_x / v.x[r]).max(1.0);
            0.4 + alpha / 2.0 + alpha * alpha / 10.0
        }
        Psi::EcMtcp => {
            let sx = sum_x();
            let sw = sum_w();
            let min_rtt = v.rtt.iter().copied().fold(f64::INFINITY, f64::min);
            v.rtt[r].powi(3) * sx * sx / (n * min_rtt * w(r) * sw)
        }
        Psi::Dts(cfg) => {
            let ratio = (v.base_rtt[r] / v.rtt[r]).clamp(0.0, 1.0);
            let eps = if cfg.fixed_point {
                epsilon_fixed_point(ratio)
            } else {
                epsilon_exact(ratio, cfg.slope, cfg.midpoint)
            };
            cfg.c * eps
        }
    }
}

/// `φ_r` exactly as §V-C states it.
pub fn phi(phi: &Phi, r: usize, v: &FlowView<'_>) -> f64 {
    match phi {
        Phi::Zero => 0.0,
        Phi::EnergyPrice(cfg) => {
            let d_hat = (v.rtt[r] - v.base_rtt[r]).max(0.0);
            let excess = (d_hat - cfg.queue_target_s).max(0.0);
            let grad = cfg.rho + cfg.eta * excess / cfg.queue_target_s;
            cfg.kappa * v.x[r] * v.x[r] * grad
        }
    }
}

/// Equation (3): `dx_r/dt` given the congestion signal `λ_r`.
pub fn dxdt(model: &CcModel, r: usize, v: &FlowView<'_>, lambda_r: f64) -> f64 {
    let x = v.x[r];
    let sx: f64 = v.x.iter().sum();
    if sx <= 0.0 {
        return 0.0;
    }
    let inc = psi(&model.psi, r, v) * x * x / (v.rtt[r] * v.rtt[r] * sx * sx);
    let dec = model.beta * lambda_r * x * x;
    inc - dec - phi(&model.phi, r, v)
}

/// The link price `min(p0·(y/c)^B, 1)`.
fn price(l: &FluidLink, y: f64) -> f64 {
    if y <= 0.0 {
        return 0.0;
    }
    let p = l.p0 * (y / l.capacity).powf(l.exponent);
    if p >= 1.0 {
        1.0
    } else {
        p
    }
}

/// `dx/dt` for every flow-path of `net` at state `x`.
fn field(net: &FluidNet, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let y = net.link_rates(x);
    let prices: Vec<f64> = net.links.iter().zip(&y).map(|(l, &yl)| price(l, yl)).collect();
    net.flows
        .iter()
        .enumerate()
        .map(|(f, flow)| {
            let rtts: Vec<f64> = flow.paths.iter().map(|p| p.rtt).collect();
            let bases: Vec<f64> = flow.paths.iter().map(|p| p.base_rtt).collect();
            let view = FlowView { x: &x[f], rtt: &rtts, base_rtt: &bases };
            flow.paths
                .iter()
                .enumerate()
                .map(|(p, path)| {
                    let lambda: f64 = path.links.iter().map(|&l| prices[l]).sum();
                    dxdt(&flow.model, p, &view, lambda)
                })
                .collect()
        })
        .collect()
}

/// One classic RK4 step on nested state, with each stage state clamped to
/// the rate floor before the field sees it and the result projected onto
/// `[X_MIN, ∞)`.
pub fn rk4_step(net: &FluidNet, x: &[Vec<f64>], dt: f64) -> Vec<Vec<f64>> {
    let add = |a: &[Vec<f64>], b: &[Vec<f64>], s: f64| -> Vec<Vec<f64>> {
        a.iter()
            .zip(b)
            .map(|(ar, br)| ar.iter().zip(br).map(|(&av, &bv)| (av + s * bv).max(X_MIN)).collect())
            .collect()
    };
    let clamped: Vec<Vec<f64>> =
        x.iter().map(|r| r.iter().map(|&v| v.max(X_MIN)).collect()).collect();
    let k1 = field(net, &clamped);
    let k2 = field(net, &add(x, &k1, dt / 2.0));
    let k3 = field(net, &add(x, &k2, dt / 2.0));
    let k4 = field(net, &add(x, &k3, dt));
    x.iter()
        .enumerate()
        .map(|(f, xr)| {
            xr.iter()
                .enumerate()
                .map(|(p, &v)| {
                    let d = (k1[f][p] + 2.0 * k2[f][p] + 2.0 * k3[f][p] + k4[f][p]) / 6.0;
                    (v + dt * d).max(X_MIN)
                })
                .collect()
        })
        .collect()
}
