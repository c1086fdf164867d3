//! Segmented bus (Udipi et al., HPCA'10) — the related-work baseline the
//! paper positions CryoBus against (Section 8, "Large-scale bus").
//!
//! The spine bus is split into `segments` sections joined by isolation
//! switches. A transaction only drives the sections between the source
//! and every snooper that must see it — for a snooping *broadcast* that
//! is still the whole bus, but the common unicast data response only
//! activates the sections on its path, saving energy and, with multiple
//! simultaneous non-overlapping transfers, some bandwidth. Comparing it
//! with CryoBus isolates what the H-tree + dynamic link connection add
//! beyond plain segmentation.

use cryowire_device::Temperature;

use crate::error::NocError;
use crate::link::LinkModel;
use crate::sim::{Network, PacketLeg};
use crate::topology::Topology;

/// A segmented spine bus.
#[derive(Debug, Clone)]
pub struct SegmentedBus {
    topo: Topology,
    temperature: Temperature,
    segments: usize,
    /// Cycles to cross one segment's wire span.
    segment_cycles: u64,
    /// Arbitration + request/grant latency (as the conventional bus).
    control_cycles: u64,
    /// Switch crossing latency between adjacent segments, cycles.
    switch_cycles: u64,
}

impl SegmentedBus {
    /// Builds a spine bus over `nodes` cores split into `segments`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for invalid node counts or zero segments.
    pub fn new(nodes: usize, segments: usize, t: Temperature) -> Result<Self, NocError> {
        if segments == 0 {
            return Err(NocError::InvalidNodeCount {
                nodes: segments,
                requirement: "need at least one segment",
            });
        }
        let topo = Topology::square(nodes)?;
        let link = LinkModel::new();
        let clock = 4.0;
        let span = topo.shared_bus_max_hops();
        let seg_hops = span.div_ceil(segments);
        let to_center = span / 2;
        Ok(SegmentedBus {
            topo,
            temperature: t,
            segments,
            segment_cycles: link.traversal_cycles(seg_hops, t, clock).max(1) as u64,
            control_cycles: 2 * link.traversal_cycles(to_center, t, clock) as u64 + 1,
            switch_cycles: 1,
        })
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Broadcast latency (crossing every segment and switch), cycles.
    #[must_use]
    pub fn broadcast_cycles(&self) -> u64 {
        self.segments as u64 * self.segment_cycles + (self.segments as u64 - 1) * self.switch_cycles
    }

    /// Which segment a core's bus tap sits on (by spine order).
    fn segment_of(&self, core: usize) -> usize {
        core * self.segments / self.topo.nodes()
    }

    /// Fraction of segments a unicast between two cores activates —
    /// the energy advantage over the monolithic bus.
    #[must_use]
    pub fn activation_fraction(&self, src: usize, dst: usize) -> f64 {
        let a = self.segment_of(src);
        let b = self.segment_of(dst);
        (a.abs_diff(b) + 1) as f64 / self.segments as f64
    }
}

impl Network for SegmentedBus {
    fn name(&self) -> String {
        format!(
            "Segmented bus ({} segs) @ {}",
            self.segments, self.temperature
        )
    }

    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn resource_count(&self) -> usize {
        self.segments
    }

    fn path(&self, src: usize, _dst: usize, _tag: u64) -> Vec<PacketLeg> {
        // Snooping request: the broadcast must drive every segment, but
        // segments are claimed in sequence from the source outward —
        // modelled as holding each segment for its crossing time.
        let mut legs = vec![PacketLeg::latency(self.control_cycles)];
        let start = self.segment_of(src);
        // Order segments by distance from the source (both directions
        // propagate concurrently; the far side dominates latency, so we
        // charge the longer arm and hold every segment).
        let left = start;
        let right = self.segments - 1 - start;
        let arm = left.max(right) as u64;
        for s in 0..self.segments {
            let occupancy = self.segment_cycles + self.switch_cycles;
            // Only the longest arm contributes to latency.
            let traversal = if s as u64 <= arm {
                self.segment_cycles
            } else {
                0
            };
            legs.push(PacketLeg::on(s, occupancy, traversal));
        }
        legs
    }

    fn route_group(&self, core: usize) -> usize {
        // A broadcast depends on the segment its source taps only.
        self.segment_of(core)
    }

    fn route_groups(&self) -> usize {
        self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SharedBus;
    use crate::cryobus::CryoBus;

    fn t77() -> Temperature {
        Temperature::liquid_nitrogen()
    }

    #[test]
    fn segmentation_does_not_beat_the_monolithic_broadcast() {
        // For snooping broadcasts, segment switches only add crossings:
        // the paper's point that plain segmentation cannot reach the
        // 1-cycle target.
        let seg = SegmentedBus::new(64, 4, t77()).unwrap();
        let mono = SharedBus::new(64, t77());
        assert!(seg.broadcast_cycles() >= mono.occupancy_cycles());
    }

    #[test]
    fn cryobus_beats_segmented_bus_on_latency() {
        let seg = SegmentedBus::new(64, 4, t77()).unwrap();
        let cryo = CryoBus::new(64, t77());
        assert!(
            cryo.transaction_latency() < seg.zero_load_latency(0, 63),
            "CryoBus {} vs segmented {}",
            cryo.transaction_latency(),
            seg.zero_load_latency(0, 63)
        );
    }

    #[test]
    fn unicast_activation_shrinks_with_more_segments() {
        // The energy win segmentation *does* deliver.
        let few = SegmentedBus::new(64, 2, t77()).unwrap();
        let many = SegmentedBus::new(64, 8, t77()).unwrap();
        // Neighbouring cores:
        assert!(many.activation_fraction(0, 1) < few.activation_fraction(0, 1));
        // Far cores still activate everything.
        assert!((many.activation_fraction(0, 63) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_segments() {
        assert!(SegmentedBus::new(64, 0, t77()).is_err());
    }

    #[test]
    fn zero_load_latency_reasonable() {
        let seg = SegmentedBus::new(64, 4, t77()).unwrap();
        let z = seg.zero_load_latency(0, 63);
        assert!(z >= seg.control_cycles + seg.segment_cycles);
        assert!(z < 64);
    }
}
