//! Provenance-based trustworthiness (paper §V-D pointer to Lim, Moon &
//! Bertino \[20\]: "provenance-based trustworthiness assessment in sensor
//! networks").
//!
//! A data item's trust derives from *where it came from and how it
//! traveled*: the source's trust, attenuated across every intermediate
//! processor, and reinforced when independent provenance paths agree. This
//! complements the per-message validators in [`validators`](crate::validators):
//! those judge a cluster of claims, this judges one item's pedigree.

use std::collections::BTreeMap;
use vc_sim::node::VehicleId;

/// A node in a provenance graph: who touched the data and what they did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenanceStep {
    /// The node sensed/created the value.
    Source(VehicleId),
    /// The node relayed it unchanged.
    Relay(VehicleId),
    /// The node transformed/aggregated it (higher tampering opportunity).
    Processor(VehicleId),
}

impl ProvenanceStep {
    /// The vehicle at this step.
    pub fn who(&self) -> VehicleId {
        match self {
            ProvenanceStep::Source(v) | ProvenanceStep::Relay(v) | ProvenanceStep::Processor(v) => {
                *v
            }
        }
    }
}

/// One item's provenance: an ordered path from source to receiver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProvenancePath {
    /// Steps, source first.
    pub steps: Vec<ProvenanceStep>,
}

impl ProvenancePath {
    /// Creates a path from a source through relays.
    pub fn new(source: VehicleId, relays: &[VehicleId]) -> Self {
        let mut steps = vec![ProvenanceStep::Source(source)];
        steps.extend(relays.iter().map(|&r| ProvenanceStep::Relay(r)));
        ProvenancePath { steps }
    }

    /// The source, if the path is well-formed (starts with a source step).
    pub fn source(&self) -> Option<VehicleId> {
        match self.steps.first() {
            Some(ProvenanceStep::Source(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the path has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Per-node trust scores used by the evaluator (defaults to 0.5 for unknown
/// nodes, like the reputation store's prior).
#[derive(Debug, Clone, Default)]
pub struct NodeTrust {
    scores: BTreeMap<VehicleId, f64>,
}

impl NodeTrust {
    /// Creates an empty table.
    pub fn new() -> Self {
        NodeTrust::default()
    }

    /// Sets a node's trust in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `score` is outside `[0, 1]`.
    pub fn set(&mut self, node: VehicleId, score: f64) {
        assert!((0.0..=1.0).contains(&score), "trust must be in [0,1]");
        self.scores.insert(node, score);
    }

    /// A node's trust (0.5 prior when unknown).
    pub fn get(&self, node: VehicleId) -> f64 {
        self.scores.get(&node).copied().unwrap_or(0.5)
    }
}

/// Evaluator parameters.
#[derive(Debug, Clone)]
pub struct ProvenanceConfig {
    /// Trust attenuation per relay hop (a relay can drop/delay but the
    /// signature protects content): multiplier close to 1.
    pub relay_attenuation: f64,
    /// Attenuation per processing hop (a processor could tamper): smaller.
    pub processor_attenuation: f64,
}

impl Default for ProvenanceConfig {
    fn default() -> Self {
        ProvenanceConfig { relay_attenuation: 0.97, processor_attenuation: 0.85 }
    }
}

/// Trust of a single item given its provenance path: source trust attenuated
/// along the path, weighted by the minimum-trust node it passed through
/// ("a chain is as strong as its weakest link").
pub fn path_trust(path: &ProvenancePath, nodes: &NodeTrust, config: &ProvenanceConfig) -> f64 {
    let Some(source) = path.source() else {
        return 0.0;
    };
    let mut trust = nodes.get(source);
    let mut weakest: f64 = trust;
    for step in &path.steps[1..] {
        let node_trust = nodes.get(step.who());
        weakest = weakest.min(node_trust);
        trust *= match step {
            ProvenanceStep::Source(_) => 1.0,
            ProvenanceStep::Relay(_) => config.relay_attenuation,
            ProvenanceStep::Processor(_) => config.processor_attenuation,
        };
    }
    (trust * weakest).clamp(0.0, 1.0)
}

/// Combined trust of one value received over several *distinct* provenance
/// paths: independent agreement compounds (noisy-OR), shared nodes are
/// counted once.
pub fn multi_path_trust(
    paths: &[ProvenancePath],
    nodes: &NodeTrust,
    config: &ProvenanceConfig,
) -> f64 {
    if paths.is_empty() {
        return 0.0;
    }
    // Noisy-OR over per-path distrust, discounted by overlap: a path that
    // shares nodes with an earlier path only contributes its non-shared
    // fraction.
    let mut seen_nodes: std::collections::BTreeSet<VehicleId> = std::collections::BTreeSet::new();
    let mut distrust = 1.0f64;
    for path in paths {
        let t = path_trust(path, nodes, config);
        let total = path.len().max(1);
        let fresh = path.steps.iter().filter(|s| !seen_nodes.contains(&s.who())).count();
        let independence = fresh as f64 / total as f64;
        distrust *= 1.0 - t * independence;
        for s in &path.steps {
            seen_nodes.insert(s.who());
        }
    }
    1.0 - distrust
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VehicleId {
        VehicleId(i)
    }

    #[test]
    fn direct_source_keeps_its_trust() {
        let mut nodes = NodeTrust::new();
        nodes.set(v(1), 0.9);
        let path = ProvenancePath::new(v(1), &[]);
        let t = path_trust(&path, &nodes, &ProvenanceConfig::default());
        assert!((t - 0.81).abs() < 1e-9, "source trust × weakest(=source): {t}");
    }

    #[test]
    fn relays_attenuate_gently_processors_strongly() {
        let mut nodes = NodeTrust::new();
        for i in 1..=4 {
            nodes.set(v(i), 0.9);
        }
        let cfg = ProvenanceConfig::default();
        let relayed = ProvenancePath::new(v(1), &[v(2), v(3), v(4)]);
        let mut processed = ProvenancePath::new(v(1), &[]);
        processed.steps.push(ProvenanceStep::Processor(v(2)));
        processed.steps.push(ProvenanceStep::Processor(v(3)));
        processed.steps.push(ProvenanceStep::Processor(v(4)));
        let tr = path_trust(&relayed, &nodes, &cfg);
        let tp = path_trust(&processed, &nodes, &cfg);
        assert!(tr > tp, "relays {tr} must attenuate less than processors {tp}");
        assert!(tr < 0.81, "some attenuation applies");
    }

    #[test]
    fn weakest_link_dominates() {
        let mut nodes = NodeTrust::new();
        nodes.set(v(1), 0.95);
        nodes.set(v(2), 0.95);
        nodes.set(v(3), 0.05); // compromised relay
        let good = ProvenancePath::new(v(1), &[v(2)]);
        let bad = ProvenancePath::new(v(1), &[v(3)]);
        let cfg = ProvenanceConfig::default();
        assert!(path_trust(&bad, &nodes, &cfg) < path_trust(&good, &nodes, &cfg) / 3.0);
    }

    #[test]
    fn malformed_path_scores_zero() {
        let nodes = NodeTrust::new();
        let cfg = ProvenanceConfig::default();
        assert_eq!(path_trust(&ProvenancePath::default(), &nodes, &cfg), 0.0);
        let mut headless = ProvenancePath::default();
        headless.steps.push(ProvenanceStep::Relay(v(1)));
        assert_eq!(path_trust(&headless, &nodes, &cfg), 0.0);
    }

    #[test]
    fn independent_paths_compound() {
        let mut nodes = NodeTrust::new();
        for i in 1..=6 {
            nodes.set(v(i), 0.8);
        }
        let cfg = ProvenanceConfig::default();
        let p1 = ProvenancePath::new(v(1), &[v(2)]);
        let p2 = ProvenancePath::new(v(3), &[v(4)]);
        let p3 = ProvenancePath::new(v(5), &[v(6)]);
        let single = multi_path_trust(std::slice::from_ref(&p1), &nodes, &cfg);
        let triple = multi_path_trust(&[p1, p2, p3], &nodes, &cfg);
        assert!(triple > single, "independent corroboration raises trust");
        assert!(triple <= 1.0);
    }

    #[test]
    fn shared_path_does_not_compound() {
        let mut nodes = NodeTrust::new();
        for i in 1..=3 {
            nodes.set(v(i), 0.8);
        }
        let cfg = ProvenanceConfig::default();
        // Three "paths" that are all the same chain.
        let p = ProvenancePath::new(v(1), &[v(2), v(3)]);
        let single = multi_path_trust(std::slice::from_ref(&p), &nodes, &cfg);
        let fake_triple = multi_path_trust(&[p.clone(), p.clone(), p], &nodes, &cfg);
        assert!(
            (fake_triple - single).abs() < 1e-9,
            "duplicated provenance adds nothing: {single} vs {fake_triple}"
        );
    }

    #[test]
    fn unknown_nodes_get_prior() {
        let nodes = NodeTrust::new();
        assert_eq!(nodes.get(v(42)), 0.5);
        let cfg = ProvenanceConfig::default();
        let t = path_trust(&ProvenancePath::new(v(42), &[]), &nodes, &cfg);
        assert!((t - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_multi_path_is_zero() {
        assert_eq!(multi_path_trust(&[], &NodeTrust::new(), &ProvenanceConfig::default()), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_trust_rejected() {
        NodeTrust::new().set(v(1), 1.5);
    }
}
