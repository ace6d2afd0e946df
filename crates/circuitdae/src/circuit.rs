//! Modified-nodal-analysis circuit builder.

use crate::dae::{Dae, Pattern};
use crate::device::{Device, Stamper};
use numkit::DMat;
use sparsekit::Triplets;
use std::fmt;

/// A circuit node handle.
///
/// `Node(0)` is ground (not an unknown); handles are produced by
/// [`Circuit::node`] so indices always refer to the circuit that created
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(usize);

impl Node {
    /// The index of this node's voltage among the unknowns, or `None` for
    /// ground.
    #[inline]
    pub fn unknown_index(self) -> Option<usize> {
        self.0.checked_sub(1)
    }

    /// Constructs a node handle from a raw index (`0` = ground).
    ///
    /// Exposed for tests and generated circuits; prefer [`Circuit::node`].
    pub fn from_raw(raw: usize) -> Self {
        Node(raw)
    }
}

/// Errors from circuit construction.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A device references a node that this circuit never created.
    UnknownNode {
        /// The offending raw node index.
        node: usize,
    },
    /// A node has no device attached, which would make the system singular.
    FloatingNode {
        /// Name of the unconnected node.
        name: String,
    },
    /// The circuit has no devices.
    Empty,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UnknownNode { node } => {
                write!(f, "device references unknown node index {node}")
            }
            CircuitError::FloatingNode { name } => {
                write!(f, "node '{name}' has no device attached")
            }
            CircuitError::Empty => write!(f, "circuit contains no devices"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// A SPICE-style circuit under construction.
///
/// Create nodes with [`Circuit::node`], attach [`Device`]s with
/// [`Circuit::add`], then [`Circuit::build`] a [`CircuitDae`] that
/// implements the [`Dae`] trait consumed by every engine in the workspace.
///
/// # Example
///
/// ```
/// use circuitdae::{Circuit, Device, Dae};
///
/// let mut ckt = Circuit::new();
/// let tank = ckt.node("tank");
/// ckt.add(Device::capacitor(tank, Circuit::GND, 4.5e-9));
/// ckt.add(Device::inductor(tank, Circuit::GND, 1e-5));
/// ckt.add(Device::cubic_conductor(tank, Circuit::GND, 2e-3, 2e-3 / 3.0));
/// let dae = ckt.build().unwrap();
/// assert_eq!(dae.dim(), 2); // tank voltage + inductor current
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    devices: Vec<Device>,
}

impl Circuit {
    /// The ground node (reference, not an unknown).
    pub const GND: Node = Node(0);

    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Creates a named node and returns its handle.
    pub fn node(&mut self, name: impl Into<String>) -> Node {
        self.node_names.push(name.into());
        Node(self.node_names.len())
    }

    /// Number of non-ground nodes created so far.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Attaches a device.
    pub fn add(&mut self, device: Device) {
        self.devices.push(device);
    }

    /// The devices attached so far, in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable access to device `index` (insertion order), for applying
    /// parameter overrides before [`Circuit::build`] — the substrate of
    /// deck-driven sweeps.
    pub fn device_mut(&mut self, index: usize) -> Option<&mut Device> {
        self.devices.get_mut(index)
    }

    /// Finalises the circuit into a [`CircuitDae`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::Empty`] — no devices;
    /// * [`CircuitError::UnknownNode`] — a device references a node index
    ///   this circuit never created;
    /// * [`CircuitError::FloatingNode`] — a created node has no device.
    pub fn build(self) -> Result<CircuitDae, CircuitError> {
        if self.devices.is_empty() {
            return Err(CircuitError::Empty);
        }
        let n_nodes = self.node_names.len();
        let mut touched = vec![false; n_nodes];
        for d in &self.devices {
            for n in d.nodes() {
                if n.0 > n_nodes {
                    return Err(CircuitError::UnknownNode { node: n.0 });
                }
                if let Some(i) = n.unknown_index() {
                    touched[i] = true;
                }
            }
        }
        if let Some(i) = touched.iter().position(|t| !t) {
            return Err(CircuitError::FloatingNode {
                name: self.node_names[i].clone(),
            });
        }

        // Assign extra-unknown offsets after the node voltages.
        let mut offset = n_nodes;
        let mut placed = Vec::with_capacity(self.devices.len());
        let mut names: Vec<String> = self.node_names.iter().map(|n| format!("v({n})")).collect();
        for (k, d) in self.devices.into_iter().enumerate() {
            let extras = d.n_extras();
            match d {
                Device::Inductor { .. } => names.push(format!("i(L{k})")),
                Device::VoltageSource { .. } => names.push(format!("i(V{k})")),
                Device::MemsVaractor { .. } => {
                    names.push(format!("y(M{k})"));
                    names.push(format!("u(M{k})"));
                }
                _ => {}
            }
            placed.push((d, offset));
            offset += extras;
        }

        Ok(CircuitDae {
            dim: offset,
            devices: placed,
            names,
        })
    }
}

/// A finalised circuit implementing [`Dae`].
#[derive(Debug, Clone)]
pub struct CircuitDae {
    dim: usize,
    devices: Vec<(Device, usize)>,
    names: Vec<String>,
}

impl CircuitDae {
    /// Devices and their extra-unknown offsets (read-only inspection).
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter().map(|(d, _)| d)
    }

    /// Index of the extra unknowns of device `k` (in insertion order),
    /// if it has any. Used by tests and post-processing to locate, e.g.,
    /// the MEMS plate displacement.
    pub fn extra_offset(&self, device_index: usize) -> Option<usize> {
        let (d, off) = self.devices.get(device_index)?;
        if d.n_extras() > 0 {
            Some(*off)
        } else {
            None
        }
    }

    /// The circuit with every time-dependent source and control waveform
    /// frozen at its value at time `t` — the *unforced* companion system.
    ///
    /// Freezing changes no device topology, so the returned DAE has the
    /// same dimension and unknown ordering; only `b(t)` becomes constant.
    /// This is how deck-driven WaMPDE runs obtain the oscillator whose
    /// periodic steady state seeds the envelope (paper §4.1: the natural
    /// initial condition is the unforced solution at `t = 0`).
    pub fn frozen_at(&self, t: f64) -> CircuitDae {
        CircuitDae {
            dim: self.dim,
            devices: self
                .devices
                .iter()
                .map(|(d, off)| (d.frozen_at(t), *off))
                .collect(),
            names: self.names.clone(),
        }
    }

    /// Stamps one per-device triplet pass in device insertion order.
    fn stamp_jac_triplets(
        &self,
        x: &[f64],
        out: &mut Triplets,
        stamp: fn(&Device, &Stamper<'_>, usize, &mut Triplets),
    ) {
        let st = Stamper { x };
        for (d, off) in &self.devices {
            stamp(d, &st, *off, out);
        }
    }
}

impl Dae for CircuitDae {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval_q(&self, x: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let st = Stamper { x };
        for (d, off) in &self.devices {
            d.stamp_q(&st, *off, out);
        }
    }

    fn eval_f(&self, x: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let st = Stamper { x };
        for (d, off) in &self.devices {
            d.stamp_f(&st, *off, out);
        }
    }

    fn eval_b(&self, t: f64, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for (d, off) in &self.devices {
            d.stamp_b(t, *off, out);
        }
    }

    fn jac_q(&self, x: &[f64], out: &mut DMat) {
        out.fill_zero();
        let st = Stamper { x };
        for (d, off) in &self.devices {
            d.stamp_jac_q(&st, *off, out);
        }
    }

    fn jac_f(&self, x: &[f64], out: &mut DMat) {
        out.fill_zero();
        let st = Stamper { x };
        for (d, off) in &self.devices {
            d.stamp_jac_f(&st, *off, out);
        }
    }

    fn var_names(&self) -> Vec<String> {
        self.names.clone()
    }

    fn sparsity(&self) -> Pattern {
        // Device triplet stamps push every structural position regardless
        // of value, so one stamp at x = 0 reveals the full pattern.
        let x = vec![0.0; self.dim];
        let mut t = Triplets::new(self.dim, self.dim);
        self.jac_q_triplets(&x, &mut t);
        self.jac_f_triplets(&x, &mut t);
        Pattern::from_entries(self.dim, t.iter().map(|(r, c, _)| (r, c)).collect())
    }

    fn jac_q_triplets(&self, x: &[f64], out: &mut Triplets) {
        self.stamp_jac_triplets(x, out, Device::stamp_jac_q_trip);
    }

    fn jac_f_triplets(&self, x: &[f64], out: &mut Triplets) {
        self.stamp_jac_triplets(x, out, Device::stamp_jac_f_trip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dae::check_jacobians;
    use crate::device::MemsParams;
    use crate::waveform::Waveform;

    fn rc_circuit() -> CircuitDae {
        let mut ckt = Circuit::new();
        let n = ckt.node("out");
        ckt.add(Device::resistor(n, Circuit::GND, 2.0));
        ckt.add(Device::capacitor(n, Circuit::GND, 3.0));
        ckt.add(Device::current_source(Circuit::GND, n, Waveform::Dc(1.0)));
        ckt.build().unwrap()
    }

    #[test]
    fn rc_values() {
        let dae = rc_circuit();
        let x = [4.0];
        let mut q = [0.0];
        let mut f = [0.0];
        let mut b = [0.0];
        dae.eval_q(&x, &mut q);
        dae.eval_f(&x, &mut f);
        dae.eval_b(0.0, &mut b);
        assert_eq!(q[0], 12.0); // C·v
        assert_eq!(f[0], 2.0); // v/R
        assert_eq!(b[0], 1.0); // injected current
    }

    #[test]
    fn empty_circuit_rejected() {
        assert_eq!(Circuit::new().build().unwrap_err(), CircuitError::Empty);
    }

    #[test]
    fn floating_node_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let _b = ckt.node("floating");
        ckt.add(Device::resistor(a, Circuit::GND, 1.0));
        assert!(matches!(
            ckt.build(),
            Err(CircuitError::FloatingNode { .. })
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut ckt = Circuit::new();
        let _a = ckt.node("a");
        ckt.add(Device::resistor(Node::from_raw(5), Circuit::GND, 1.0));
        assert!(matches!(
            ckt.build(),
            Err(CircuitError::UnknownNode { node: 5 })
        ));
    }

    #[test]
    fn lc_tank_dimensions_and_names() {
        let mut ckt = Circuit::new();
        let t = ckt.node("tank");
        ckt.add(Device::capacitor(t, Circuit::GND, 1e-9));
        ckt.add(Device::inductor(t, Circuit::GND, 1e-5));
        let dae = ckt.build().unwrap();
        assert_eq!(dae.dim(), 2);
        let names = dae.var_names();
        assert_eq!(names[0], "v(tank)");
        assert!(names[1].starts_with("i(L"));
    }

    #[test]
    fn voltage_source_rows() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::voltage_source(a, Circuit::GND, Waveform::Dc(5.0)));
        ckt.add(Device::resistor(a, Circuit::GND, 10.0));
        let dae = ckt.build().unwrap();
        // x = [v_a, i_src]; residual f - b at solution v=5, i=-0.5 is zero.
        let x = [5.0, -0.5];
        let mut f = [0.0; 2];
        let mut b = [0.0; 2];
        dae.eval_f(&x, &mut f);
        dae.eval_b(0.0, &mut b);
        assert!((f[0] - b[0]).abs() < 1e-12);
        assert!((f[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn frozen_at_keeps_dimension_and_stills_forcing() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::resistor(a, Circuit::GND, 1e3));
        ckt.add(Device::current_source(
            Circuit::GND,
            a,
            Waveform::sine(0.0, 1e-3, 1e3),
        ));
        let dae = ckt.build().unwrap();
        let frozen = dae.frozen_at(0.25e-3); // sine peak
        assert_eq!(frozen.dim(), dae.dim());
        assert_eq!(frozen.var_names(), dae.var_names());
        let mut b0 = [0.0];
        let mut b1 = [0.0];
        frozen.eval_b(0.0, &mut b0);
        frozen.eval_b(7.7, &mut b1);
        assert!((b0[0] - 1e-3).abs() < 1e-12);
        assert_eq!(b0, b1);
    }

    #[test]
    fn device_mut_applies_override() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::resistor(a, Circuit::GND, 1.0));
        ckt.add(Device::capacitor(a, Circuit::GND, 1.0));
        ckt.device_mut(0).unwrap().set_param(None, 2.0).unwrap();
        assert!(ckt.device_mut(5).is_none());
        assert_eq!(ckt.devices()[0], Device::resistor(a, Circuit::GND, 2.0));
    }

    #[test]
    fn jacobians_match_fd_linear_devices() {
        let dae = rc_circuit();
        assert!(check_jacobians(&dae, &[0.7]) < 1e-7);
    }

    #[test]
    fn jacobians_match_fd_nonlinear_vco() {
        let mut ckt = Circuit::new();
        let t = ckt.node("tank");
        ckt.add(Device::capacitor(t, Circuit::GND, 4.5e-9));
        ckt.add(Device::inductor(t, Circuit::GND, 1e-5));
        ckt.add(Device::cubic_conductor(t, Circuit::GND, 2e-3, 6.7e-4));
        ckt.add(Device::tanh_conductor(t, Circuit::GND, 1e-3, 0.5, 1e-5));
        let dae = ckt.build().unwrap();
        assert!(check_jacobians(&dae, &[0.8, -0.3]) < 1e-6);
    }

    #[test]
    fn jacobians_match_fd_mems() {
        let p = MemsParams {
            c0: 5e-9,
            y0: 1.0,
            mass: 1e-12,
            damping: 3e-7,
            spring_k: 2.5,
            force_gain: 0.12,
            control: Waveform::Dc(1.5),
            tank_coupling: 0.0,
        };
        let mut ckt = Circuit::new();
        let t = ckt.node("tank");
        ckt.add(Device::inductor(t, Circuit::GND, 1e-5));
        ckt.add(Device::cubic_conductor(t, Circuit::GND, 2e-3, 6.7e-4));
        ckt.add(Device::mems_varactor(t, Circuit::GND, p));
        let dae = ckt.build().unwrap();
        // x = [v, iL, y, u]
        assert!(check_jacobians(&dae, &[1.2, -0.5, 0.3, 0.1]) < 1e-6);
    }

    #[test]
    fn jacobians_match_fd_mems_with_tank_coupling() {
        let p = MemsParams {
            c0: 5e-9,
            y0: 1.0,
            mass: 1e-12,
            damping: 3e-7,
            spring_k: 2.5,
            force_gain: 0.12,
            control: Waveform::Dc(1.5),
            tank_coupling: 0.8,
        };
        let mut ckt = Circuit::new();
        let t = ckt.node("tank");
        ckt.add(Device::inductor(t, Circuit::GND, 1e-5));
        ckt.add(Device::mems_varactor(t, Circuit::GND, p));
        let dae = ckt.build().unwrap();
        assert!(check_jacobians(&dae, &[1.2, -0.5, 0.3, 0.1]) < 1e-6);
    }

    #[test]
    fn mems_extra_offset_lookup() {
        let p = MemsParams {
            c0: 5e-9,
            y0: 1.0,
            mass: 1e-12,
            damping: 3e-7,
            spring_k: 2.5,
            force_gain: 0.12,
            control: Waveform::Dc(1.5),
            tank_coupling: 0.0,
        };
        let mut ckt = Circuit::new();
        let t = ckt.node("tank");
        ckt.add(Device::capacitor(t, Circuit::GND, 1e-9));
        ckt.add(Device::mems_varactor(t, Circuit::GND, p));
        let dae = ckt.build().unwrap();
        assert_eq!(dae.extra_offset(0), None);
        assert_eq!(dae.extra_offset(1), Some(1));
        assert_eq!(dae.dim(), 3);
    }

    #[test]
    fn diode_rectifier_jacobians() {
        // Diode + load: analytic Jacobians must match FD on both sides of
        // conduction.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::current_source(Circuit::GND, a, Waveform::Dc(1e-3)));
        ckt.add(Device::diode(a, Circuit::GND, 1e-14, 0.02585));
        ckt.add(Device::resistor(a, Circuit::GND, 1e6));
        let dae = ckt.build().unwrap();
        assert!(check_jacobians(&dae, &[0.55]) < 1e-5);
        assert!(check_jacobians(&dae, &[-0.4]) < 1e-6);
    }

    #[test]
    fn vccs_couples_control_to_output() {
        // gm stage: input pair drives current into a load resistor.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Device::resistor(inp, Circuit::GND, 1e3));
        ckt.add(Device::current_source(
            Circuit::GND,
            inp,
            Waveform::Dc(1e-3),
        )); // v_in = 1
        ckt.add(Device::vccs(Circuit::GND, out, inp, Circuit::GND, 2e-3));
        ckt.add(Device::resistor(out, Circuit::GND, 500.0));
        let dae = ckt.build().unwrap();
        // Solve DC by hand-checking the residual at the expected solution:
        // v_in = 1 V, i_out = 2 mA → v_out = 1 V.
        let x = [1.0, 1.0];
        let mut f = [0.0; 2];
        let mut b = [0.0; 2];
        dae.eval_f(&x, &mut f);
        dae.eval_b(0.0, &mut b);
        assert!((f[0] - b[0]).abs() < 1e-12, "{f:?} vs {b:?}");
        assert!((f[1] - b[1]).abs() < 1e-12, "{f:?} vs {b:?}");
        assert!(check_jacobians(&dae, &[0.3, -0.2]) < 1e-6);
    }

    /// Sparse and dense Jacobian stamping must agree entrywise, and the
    /// reported pattern must cover every dense nonzero.
    fn assert_sparse_matches_dense(dae: &CircuitDae, x: &[f64]) {
        let n = dae.dim();
        let mut dense_q = DMat::zeros(n, n);
        let mut dense_f = DMat::zeros(n, n);
        dae.jac_q(x, &mut dense_q);
        dae.jac_f(x, &mut dense_f);
        let mut tq = Triplets::new(n, n);
        dae.jac_q_triplets(x, &mut tq);
        let mut tf = Triplets::new(n, n);
        dae.jac_f_triplets(x, &mut tf);
        let sq = tq.to_dense();
        let sf = tf.to_dense();
        let pattern = dae.sparsity();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (dense_q[(i, j)] - sq[(i, j)]).abs() < 1e-14,
                    "C({i},{j}): {} vs {}",
                    dense_q[(i, j)],
                    sq[(i, j)]
                );
                assert!(
                    (dense_f[(i, j)] - sf[(i, j)]).abs() < 1e-14,
                    "G({i},{j}): {} vs {}",
                    dense_f[(i, j)],
                    sf[(i, j)]
                );
                if dense_q[(i, j)] != 0.0 || dense_f[(i, j)] != 0.0 {
                    assert!(pattern.contains(i, j), "pattern misses ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn sparse_stamps_match_dense_across_devices() {
        // Covers R, C, L, GN, GT, V, I, diode, VCCS.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Device::voltage_source(a, Circuit::GND, Waveform::Dc(2.0)));
        ckt.add(Device::resistor(a, b, 1e3));
        ckt.add(Device::capacitor(b, Circuit::GND, 1e-9));
        ckt.add(Device::inductor(b, Circuit::GND, 1e-5));
        ckt.add(Device::cubic_conductor(b, Circuit::GND, 2e-3, 6.7e-4));
        ckt.add(Device::tanh_conductor(a, b, 1e-3, 0.5, 1e-5));
        ckt.add(Device::diode(a, b, 1e-14, 0.02585));
        ckt.add(Device::vccs(Circuit::GND, b, a, Circuit::GND, 2e-3));
        ckt.add(Device::current_source(Circuit::GND, a, Waveform::Dc(1e-3)));
        let dae = ckt.build().unwrap();
        let x: Vec<f64> = (0..dae.dim()).map(|i| 0.4 - 0.17 * i as f64).collect();
        assert_sparse_matches_dense(&dae, &x);
    }

    #[test]
    fn sparse_stamps_match_dense_mems_with_coupling() {
        let p = MemsParams {
            c0: 5e-9,
            y0: 1.0,
            mass: 1e-12,
            damping: 3e-7,
            spring_k: 2.5,
            force_gain: 0.12,
            control: Waveform::Dc(1.5),
            tank_coupling: 0.8,
        };
        let mut ckt = Circuit::new();
        let t = ckt.node("tank");
        ckt.add(Device::inductor(t, Circuit::GND, 1e-5));
        ckt.add(Device::mems_varactor(t, Circuit::GND, p));
        let dae = ckt.build().unwrap();
        assert_sparse_matches_dense(&dae, &[1.2, -0.5, 0.3, 0.1]);
    }

    #[test]
    fn ladder_circuit_pattern_is_genuinely_sparse() {
        let dae = crate::circuits::ring_loaded_vco(20);
        let p = dae.sparsity();
        assert!(!p.is_dense());
        assert!(p.density() < 0.25, "density {}", p.density());
        let x: Vec<f64> = (0..dae.dim()).map(|i| (0.3 * i as f64).sin()).collect();
        assert_sparse_matches_dense(&dae, &x);
    }

    #[test]
    fn device_between_two_internal_nodes() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Device::resistor(a, b, 1.0));
        ckt.add(Device::capacitor(a, Circuit::GND, 1.0));
        ckt.add(Device::capacitor(b, Circuit::GND, 1.0));
        let dae = ckt.build().unwrap();
        let x = [2.0, 1.0];
        let mut f = [0.0; 2];
        dae.eval_f(&x, &mut f);
        assert_eq!(f[0], 1.0); // (2-1)/1 leaving a
        assert_eq!(f[1], -1.0); // entering b
    }
}
