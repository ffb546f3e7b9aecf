//! Test packets (Table IV) and the GNET-like hardware tester.
//!
//! The paper sends packets from GNET, a hardware network tester with
//! 10 Gbps NICs, "one by one with a short interval (not burstly) so that
//! DPDK does not batch them", and measures per-packet latency in
//! hardware. [`Tester`] reproduces that role on the simulated clock:
//! it produces the ingress schedule and computes per-packet latency
//! from the firewall's egress timestamps with zero measurement noise.

use fluctrace_acl::PacketKey;
use fluctrace_rt::Timed;
use fluctrace_sim::{RunningStats, SimDuration, SimTime, Summary};

/// The three test packet types of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PacketType {
    /// Src and dst addresses match rules; tries walk all three key parts.
    A,
    /// Src matches, dst does not; tries walk two parts.
    B,
    /// Nothing matches; tries stop inside the src address.
    C,
}

impl PacketType {
    /// All three types.
    pub const ALL: [PacketType; 3] = [PacketType::A, PacketType::B, PacketType::C];

    /// The exact 5-tuple of Table IV.
    pub fn key(self) -> PacketKey {
        match self {
            PacketType::A => PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 10001, 10002),
            PacketType::B => PacketKey::new([192, 168, 10, 4], [192, 168, 22, 2], 10001, 10002),
            PacketType::C => PacketKey::new([192, 168, 12, 4], [192, 168, 22, 2], 10001, 10002),
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PacketType::A => "A",
            PacketType::B => "B",
            PacketType::C => "C",
        }
    }
}

/// One test packet: sequence number plus its classification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestPacket {
    /// Sequence number (data-item id).
    pub seq: u64,
    /// The packet's type.
    pub ptype: PacketType,
    /// The classification key.
    pub key: PacketKey,
}

/// Per-type latency statistics measured by the tester.
#[derive(Debug, Clone)]
pub struct TesterReport {
    /// `(type, summary-of-latency-in-µs)` for each type that appeared.
    pub per_type: Vec<(PacketType, Summary)>,
    /// Packets sent.
    pub sent: usize,
    /// Packets received back.
    pub received: usize,
}

impl TesterReport {
    /// Summary for one type.
    pub fn for_type(&self, t: PacketType) -> Option<&Summary> {
        self.per_type
            .iter()
            .find(|(pt, _)| *pt == t)
            .map(|(_, s)| s)
    }

    /// Mean latency over all types, µs.
    pub fn overall_mean_us(&self) -> f64 {
        let mut stats = RunningStats::new();
        for (_, s) in &self.per_type {
            // Weighted by count.
            for _ in 0..s.count {
                stats.push(s.mean);
            }
        }
        stats.mean()
    }
}

/// The GNET-like tester.
pub struct Tester {
    sent: Vec<Timed<TestPacket>>,
}

impl Tester {
    /// Build an ingress schedule: `per_type` packets of each type in
    /// round-robin order (A, B, C, A, …), `interval` apart, starting at
    /// `start`. Round-robin interleaving means cache/branch state cannot
    /// favour a type systematically, matching the one-by-one methodology.
    pub fn send_round_robin(
        start: SimTime,
        interval: SimDuration,
        per_type: usize,
    ) -> (Tester, Vec<Timed<TestPacket>>) {
        let mut schedule = Vec::with_capacity(per_type * 3);
        for i in 0..per_type * 3 {
            let ptype = PacketType::ALL[i % 3];
            schedule.push(Timed::new(
                start + interval * i as u64,
                TestPacket {
                    seq: i as u64,
                    ptype,
                    key: ptype.key(),
                },
            ));
        }
        (
            Tester {
                sent: schedule.clone(),
            },
            schedule,
        )
    }

    /// Compute per-type latency statistics from the egress schedule.
    /// Packets dropped by the firewall simply never come back.
    pub fn receive(&self, egress: &[Timed<TestPacket>]) -> TesterReport {
        let mut lat: std::collections::BTreeMap<PacketType, Vec<f64>> =
            std::collections::BTreeMap::new();
        for out in egress {
            let sent_at = self.sent[out.value.seq as usize].at;
            let latency = out.at.since(sent_at);
            lat.entry(out.value.ptype)
                .or_default()
                .push(latency.as_us_f64());
        }
        TesterReport {
            per_type: lat
                .into_iter()
                .map(|(t, v)| (t, Summary::from_slice(&v).unwrap()))
                .collect(),
            sent: self.sent.len(),
            received: egress.len(),
        }
    }

    /// The ingress schedule.
    pub fn sent(&self) -> &[Timed<TestPacket>] {
        &self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaves_types() {
        let (tester, sched) = Tester::send_round_robin(SimTime::ZERO, SimDuration::from_us(50), 4);
        assert_eq!(sched.len(), 12);
        assert_eq!(sched[0].value.ptype, PacketType::A);
        assert_eq!(sched[1].value.ptype, PacketType::B);
        assert_eq!(sched[2].value.ptype, PacketType::C);
        assert_eq!(sched[3].value.ptype, PacketType::A);
        assert_eq!(tester.sent().len(), 12);
    }

    #[test]
    fn latency_measurement_per_type() {
        let (tester, sched) = Tester::send_round_robin(SimTime::ZERO, SimDuration::from_us(100), 2);
        // Echo back with type-dependent delay: A +12us, B +9us, C +6us.
        let egress: Vec<Timed<TestPacket>> = sched
            .iter()
            .map(|p| {
                let d = match p.value.ptype {
                    PacketType::A => 12,
                    PacketType::B => 9,
                    PacketType::C => 6,
                };
                Timed::new(p.at + SimDuration::from_us(d), p.value)
            })
            .collect();
        let report = tester.receive(&egress);
        assert_eq!(report.received, 6);
        assert!((report.for_type(PacketType::A).unwrap().mean - 12.0).abs() < 1e-9);
        assert!((report.for_type(PacketType::C).unwrap().mean - 6.0).abs() < 1e-9);
        assert_eq!(report.for_type(PacketType::A).unwrap().count, 2);
    }

    #[test]
    fn dropped_packets_do_not_count() {
        let (tester, sched) = Tester::send_round_robin(SimTime::ZERO, SimDuration::from_us(10), 2);
        // Only the first A and B come back.
        let egress: Vec<_> = sched
            .iter()
            .take(2)
            .map(|p| Timed::new(p.at + SimDuration::from_us(1), p.value))
            .collect();
        let report = tester.receive(&egress);
        assert_eq!(report.sent, 6);
        assert_eq!(report.received, 2);
        assert!(report.for_type(PacketType::C).is_none());
    }

    #[test]
    fn table4_keys_match_paper() {
        let a = PacketType::A.key();
        assert_eq!(a.src_ip, u32::from_be_bytes([192, 168, 10, 4]));
        assert_eq!(a.dst_ip, u32::from_be_bytes([192, 168, 11, 5]));
        assert_eq!(a.src_port, 10001);
        assert_eq!(a.dst_port, 10002);
        let b = PacketType::B.key();
        assert_eq!(b.dst_ip, u32::from_be_bytes([192, 168, 22, 2]));
        let c = PacketType::C.key();
        assert_eq!(c.src_ip, u32::from_be_bytes([192, 168, 12, 4]));
    }
}
