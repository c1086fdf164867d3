//! Hybrid CryoBus for 64+ cores (Section 7.3, Fig. 26).
//!
//! Four 64-core CryoBus clusters are stitched by a small global mesh and a
//! directory-based protocol (the hybrid gives up snooping). Intra-cluster
//! traffic uses the local CryoBus; inter-cluster traffic crosses the
//! source cluster's bus, hops the global mesh, and finishes on the
//! destination cluster's bus.

use cryowire_device::Temperature;

use crate::cryobus::CryoBus;
use crate::error::NocError;
use crate::link::LinkModel;
use crate::sim::{Network, PacketLeg};
use crate::topology::Topology;

/// The 256-core hybrid CryoBus.
#[derive(Debug, Clone)]
pub struct HybridCryoBus {
    topo: Topology,
    cluster: CryoBus,
    clusters: usize,
    global_link_cycles: u64,
    ways: usize,
}

impl HybridCryoBus {
    /// Builds the Fig. 26 configuration: `clusters` CryoBus clusters of
    /// `cluster_nodes` cores each, `ways`-way interleaved, at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for invalid cluster geometry.
    pub fn try_new(
        clusters: usize,
        cluster_nodes: usize,
        t: Temperature,
        ways: usize,
    ) -> Result<Self, NocError> {
        if clusters != 4 {
            return Err(NocError::InvalidNodeCount {
                nodes: clusters,
                requirement: "the hybrid design uses a 2x2 global mesh of 4 clusters",
            });
        }
        let topo = Topology::square(clusters * cluster_nodes)?;
        let cluster = CryoBus::try_new(cluster_nodes, t, ways)?;
        // Global mesh links span a cluster width: 8 tiles = 16 mm.
        let link = LinkModel::new();
        let cluster_side = Topology::square(cluster_nodes)?.side();
        let global_link_cycles = link.traversal_cycles(cluster_side, t, 4.0) as u64;
        Ok(HybridCryoBus {
            topo,
            cluster,
            clusters,
            global_link_cycles,
            ways,
        })
    }

    /// The paper's 256-core hybrid at 77 K.
    ///
    /// # Panics
    ///
    /// Never panics for the fixed valid configuration.
    #[must_use]
    pub fn c256(t: Temperature, ways: usize) -> Self {
        HybridCryoBus::try_new(4, 64, t, ways).expect("4x64 hybrid is valid")
    }

    /// Which cluster a core belongs to.
    #[must_use]
    fn cluster_of(&self, core: usize) -> usize {
        // 2x2 arrangement of 8x8 clusters on the 16x16 die.
        let (x, y) = self.topo.coords(core);
        let cs = self.topo.side() / 2;
        (y / cs) * 2 + (x / cs)
    }

    /// Fraction of traffic that stays within a cluster under uniform
    /// random (≈ 1/clusters).
    #[must_use]
    pub fn intra_cluster_fraction(&self) -> f64 {
        1.0 / self.clusters as f64
    }
}

impl Network for HybridCryoBus {
    fn name(&self) -> String {
        if self.ways > 1 {
            format!("Hybrid CryoBus ({}-way)", self.ways)
        } else {
            "Hybrid CryoBus".to_string()
        }
    }

    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn resource_count(&self) -> usize {
        // Per-cluster bus ways + directed global mesh links (2x2 mesh:
        // 8 directed links, use 4*4 id space for simplicity).
        self.clusters * self.ways + 16
    }

    fn path(&self, src: usize, dst: usize, tag: u64) -> Vec<PacketLeg> {
        let sc = self.cluster_of(src);
        let dc = self.cluster_of(dst);
        let way = (tag as usize) % self.ways;
        let bus = |c: usize| c * self.ways + way;
        let occ = self.cluster.occupancy_cycles();
        let lat = self.cluster.transaction_latency();

        if sc == dc {
            return vec![
                PacketLeg::latency(lat - occ),
                PacketLeg::on(bus(sc), occ, occ),
            ];
        }
        // Source-cluster bus → global mesh (1 or 2 hops on the 2x2 mesh)
        // → destination-cluster bus.
        let global_base = self.clusters * self.ways;
        let (sx, sy) = (sc % 2, sc / 2);
        let (dx, dy) = (dc % 2, dc / 2);
        let mut legs = vec![
            PacketLeg::latency(lat - occ),
            PacketLeg::on(bus(sc), occ, occ),
        ];
        let mut cur = (sx, sy);
        if sx != dx {
            let next = (dx, sy);
            legs.push(PacketLeg::on(
                global_base + (cur.1 * 2 + cur.0) * 4 + (next.1 * 2 + next.0),
                1,
                1 + self.global_link_cycles,
            ));
            cur = next;
        }
        if sy != dy {
            let next = (dx, dy);
            legs.push(PacketLeg::on(
                global_base + (cur.1 * 2 + cur.0) * 4 + (next.1 * 2 + next.0),
                1,
                1 + self.global_link_cycles,
            ));
        }
        legs.push(PacketLeg::on(bus(dc), occ, occ));
        legs
    }

    fn route_classes(&self, _dead: &[usize]) -> usize {
        // The tag selects the interleave way regardless of the dead set:
        // the hybrid keeps the default `path_avoiding` (no remapping), so
        // a route class is exactly a way.
        self.ways
    }

    fn route_group(&self, core: usize) -> usize {
        // Routes run cluster bus to cluster bus.
        self.cluster_of(core)
    }

    fn route_groups(&self) -> usize {
        self.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t77() -> Temperature {
        Temperature::liquid_nitrogen()
    }

    #[test]
    fn c256_has_256_nodes() {
        let h = HybridCryoBus::c256(t77(), 1);
        assert_eq!(h.topology().nodes(), 256);
    }

    #[test]
    fn cluster_mapping_covers_four_clusters() {
        let h = HybridCryoBus::c256(t77(), 1);
        let mut seen = [false; 4];
        for core in 0..256 {
            seen[h.cluster_of(core)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!((h.intra_cluster_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn intra_cluster_latency_equals_cryobus() {
        let h = HybridCryoBus::c256(t77(), 1);
        let cryo = CryoBus::new(64, t77());
        // Cores 0 and 1 share the top-left cluster.
        assert_eq!(h.zero_load_latency(0, 1), cryo.transaction_latency());
    }

    #[test]
    fn inter_cluster_costs_more() {
        let h = HybridCryoBus::c256(t77(), 1);
        let intra = h.zero_load_latency(0, 1);
        // Core 0 (cluster 0) to core 255 (cluster 3): diagonal, 2 mesh hops.
        let inter = h.zero_load_latency(0, 255);
        assert!(inter > intra, "inter {inter} <= intra {intra}");
    }

    #[test]
    fn rejects_wrong_cluster_count() {
        assert!(HybridCryoBus::try_new(2, 64, t77(), 1).is_err());
    }

    #[test]
    fn interleaving_helps_hybrid_too() {
        let one = HybridCryoBus::c256(t77(), 1);
        let two = HybridCryoBus::c256(t77(), 2);
        assert!(two.resource_count() > one.resource_count());
    }
}
