//! Rule partitioning and the multi-trie classifier.
//!
//! §IV.C.1 design (2): DPDK "divides the ACL rules into multiple trie
//! structures … because storing all ACL rules into a single trie
//! consumes too much memory when there are many rules". Vanilla DPDK
//! caps the number of tries at 8; the paper patches that limit so their
//! 50 000-rule set builds **247 tries** — which is precisely what
//! amplifies the per-packet cost difference.
//!
//! The builder partitions rules into chunks of at most
//! `max_rules_per_trie` (in installation order, like `rte_acl`'s
//! greedy grouping) and optionally enforces the vanilla trie-count cap.

use crate::key::PacketKey;
use crate::meter::WorkMeter;
use crate::rule::{AclRule, Action};
use crate::trie::{MatchEntry, Trie};
use serde::{Deserialize, Serialize};

/// Build-time configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AclBuildConfig {
    /// Maximum rules stored in one trie before a new trie is started.
    pub max_rules_per_trie: usize,
    /// Maximum number of tries (vanilla DPDK: 8). `None` = unlimited
    /// (the paper's patched build).
    pub max_tries: Option<usize>,
}

impl AclBuildConfig {
    /// The paper's patched configuration: the 50 000-rule set of
    /// Table III lands in 247 tries (⌈50000/247⌉ = 203 rules per trie).
    pub fn paper_patched() -> Self {
        AclBuildConfig {
            max_rules_per_trie: 203,
            max_tries: None,
        }
    }

    /// Vanilla DPDK: at most 8 tries, so each trie takes ⌈n/8⌉ rules.
    pub fn vanilla() -> Self {
        AclBuildConfig {
            max_rules_per_trie: 203,
            max_tries: Some(8),
        }
    }
}

/// Rules partitioned across multiple tries; classification consults
/// every trie and keeps the highest-priority match.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiTrieAcl {
    tries: Vec<Trie>,
    num_rules: usize,
}

impl MultiTrieAcl {
    /// Build from a rule list.
    pub fn build(rules: &[AclRule], config: AclBuildConfig) -> Self {
        assert!(config.max_rules_per_trie > 0, "zero rules per trie");
        let n = rules.len();
        // Chunk size: at most max_rules_per_trie, grown if the trie cap
        // would otherwise be exceeded (vanilla DPDK squeezes everything
        // into 8 tries no matter how many rules exist).
        let chunk = match config.max_tries {
            Some(max_tries) if n > 0 => {
                let needed = n.div_ceil(config.max_rules_per_trie);
                if needed > max_tries {
                    n.div_ceil(max_tries)
                } else {
                    config.max_rules_per_trie
                }
            }
            _ => config.max_rules_per_trie,
        };
        let mut tries = Vec::new();
        for (chunk_idx, chunk_rules) in rules.chunks(chunk.max(1)).enumerate() {
            let mut trie = Trie::new();
            for (i, rule) in chunk_rules.iter().enumerate() {
                let rule_idx = (chunk_idx * chunk + i) as u32;
                trie.insert(rule_idx, rule);
            }
            tries.push(trie);
        }
        MultiTrieAcl {
            tries,
            num_rules: n,
        }
    }

    /// Number of tries built.
    pub fn num_tries(&self) -> usize {
        self.tries.len()
    }

    /// Number of rules installed.
    pub fn num_rules(&self) -> usize {
        self.num_rules
    }

    /// The individual tries (for compilation and diagnostics).
    pub fn tries(&self) -> &[Trie] {
        &self.tries
    }

    /// Total nodes across all tries (memory proxy).
    pub fn total_nodes(&self) -> usize {
        self.tries.iter().map(Trie::num_nodes).sum()
    }

    /// Classify `key`: every trie is consulted (a match in one trie does
    /// not preclude a higher-priority match in another), the best entry
    /// wins. Work is reported to `meter`.
    pub fn classify(&self, key: &PacketKey, meter: &mut impl WorkMeter) -> Option<MatchEntry> {
        let mut best = None;
        for trie in &self.tries {
            trie.classify_into(key, meter, &mut best);
        }
        best
    }

    /// Classification reduced to the firewall decision: `Permit` for
    /// packets matching no rule (default-permit, as in the paper's
    /// firewall where all 50 000 rules are Drop and test packets pass).
    pub fn decide(&self, key: &PacketKey, meter: &mut impl WorkMeter) -> Action {
        match self.classify(key, meter) {
            Some(m) => m.action,
            None => Action::Permit,
        }
    }
}

/// Generate the paper's Table III rule structure, parameterised:
/// `sports` source ports each paired with destination ports
/// `1..=dports`, plus one extra source port (`sports + 1`) paired with
/// destination ports `1..=tail_dports`.
///
/// `table3_rules(666, 750, 500)` reproduces the paper's exact set:
/// 666 × 750 + 500 = 50 000 Drop rules between `192.168.10.0/24` and
/// `192.168.11.0/24`.
pub fn table3_rules(sports: u16, dports: u16, tail_dports: u16) -> Vec<AclRule> {
    let src: crate::rule::Ipv4Prefix = "192.168.10.0/24".parse().unwrap();
    let dst: crate::rule::Ipv4Prefix = "192.168.11.0/24".parse().unwrap();
    let mut rules = Vec::with_capacity(sports as usize * dports as usize + tail_dports as usize);
    for sp in 1..=sports {
        for dp in 1..=dports {
            rules.push(AclRule {
                priority: 1,
                src,
                dst,
                src_port: crate::rule::PortRange::exact(sp),
                dst_port: crate::rule::PortRange::exact(dp),
                action: Action::Drop,
            });
        }
    }
    for dp in 1..=tail_dports {
        rules.push(AclRule {
            priority: 1,
            src,
            dst,
            src_port: crate::rule::PortRange::exact(sports + 1),
            dst_port: crate::rule::PortRange::exact(dp),
            action: Action::Drop,
        });
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{CountingMeter, NullMeter};
    use crate::reference::LinearAcl;
    use crate::rule::{Ipv4Prefix, PortRange};
    use proptest::prelude::*;

    #[test]
    fn paper_ruleset_builds_247_tries() {
        // Scaled-down shape check is done here; the full 50 000-rule
        // build is exercised by the fig9 bench and an integration test.
        let rules = table3_rules(66, 75, 50); // 66*75+50 = 5000 rules
        let acl = MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
        assert_eq!(acl.num_rules(), 5000);
        assert_eq!(acl.num_tries(), 5000usize.div_ceil(203));
        let vanilla = MultiTrieAcl::build(&rules, AclBuildConfig::vanilla());
        assert_eq!(vanilla.num_tries(), 8);
    }

    #[test]
    fn multi_trie_agrees_with_linear_on_paper_packets() {
        let rules = table3_rules(20, 30, 10);
        let acl = MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
        let linear = LinearAcl::new(rules.clone());
        let keys = [
            PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 10001, 10002),
            PacketKey::new([192, 168, 10, 4], [192, 168, 22, 2], 10001, 10002),
            PacketKey::new([192, 168, 12, 4], [192, 168, 22, 2], 10001, 10002),
            PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 5, 7),
            PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 21, 7),
        ];
        for k in keys {
            let trie_result = acl.classify(&k, &mut NullMeter).map(|m| m.action);
            let lin_result = linear.classify(&k).map(|(_, a)| a);
            assert_eq!(trie_result, lin_result, "key {k}");
        }
    }

    #[test]
    fn work_is_amplified_by_trie_count() {
        // Same rules, 1 trie vs many tries: node visits scale with the
        // trie count for a non-matching packet (the paper's design
        // observation 3).
        let rules = table3_rules(20, 30, 10);
        let one = MultiTrieAcl::build(
            &rules,
            AclBuildConfig {
                max_rules_per_trie: usize::MAX,
                max_tries: None,
            },
        );
        let many = MultiTrieAcl::build(
            &rules,
            AclBuildConfig {
                max_rules_per_trie: 10,
                max_tries: None,
            },
        );
        assert_eq!(one.num_tries(), 1);
        assert_eq!(many.num_tries(), 61);
        let k = PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 10001, 10002);
        let mut m1 = CountingMeter::new();
        let mut m2 = CountingMeter::new();
        one.classify(&k, &mut m1);
        many.classify(&k, &mut m2);
        assert!(
            m2.node_visits > m1.node_visits * 30,
            "one trie: {} visits, 61 tries: {} visits",
            m1.node_visits,
            m2.node_visits
        );

        // The trie-partitioning ablation on Table III itself: the
        // paper's patch splits 50 000 rules into 247 tries instead of 8,
        // and a type-A packet (`k`) walks every one of them.
        let rules = table3_rules(666, 75, 50);
        let vanilla = MultiTrieAcl::build(&rules, AclBuildConfig::vanilla());
        let patched = MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
        assert_eq!((vanilla.num_tries(), patched.num_tries()), (8, 247));
        let mut m8 = CountingMeter::new();
        let mut m247 = CountingMeter::new();
        vanilla.classify(&k, &mut m8);
        patched.classify(&k, &mut m247);
        assert!(
            m247.node_visits > 20 * m8.node_visits,
            "8 tries: {} visits, 247 tries: {} visits",
            m8.node_visits,
            m247.node_visits
        );
    }

    #[test]
    fn packet_type_depths_match_paper_table4() {
        let rules = table3_rules(66, 75, 50);
        let acl = MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
        let depth_of = |k: &PacketKey| {
            let mut m = CountingMeter::new();
            acl.classify(k, &mut m);
            m.max_depth
        };
        // Type A: addresses match, ports don't → stops inside the port part.
        let a = PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 10001, 10002);
        // Type B: src matches, dst mismatches at its 3rd byte.
        let b = PacketKey::new([192, 168, 10, 4], [192, 168, 22, 2], 10001, 10002);
        // Type C: src mismatches at its 3rd byte.
        let c = PacketKey::new([192, 168, 12, 4], [192, 168, 22, 2], 10001, 10002);
        assert_eq!(depth_of(&a), 9);
        assert_eq!(depth_of(&b), 7);
        assert_eq!(depth_of(&c), 3);
    }

    #[test]
    fn default_permit_decision() {
        let rules = table3_rules(5, 5, 0);
        let acl = MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
        let pass = PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 10001, 10002);
        let drop = PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 3, 3);
        assert_eq!(acl.decide(&pass, &mut NullMeter), Action::Permit);
        assert_eq!(acl.decide(&drop, &mut NullMeter), Action::Drop);
    }

    #[test]
    fn empty_ruleset() {
        let acl = MultiTrieAcl::build(&[], AclBuildConfig::paper_patched());
        assert_eq!(acl.num_tries(), 0);
        let k = PacketKey::new([1, 2, 3, 4], [5, 6, 7, 8], 1, 1);
        assert_eq!(acl.classify(&k, &mut NullMeter), None);
        assert_eq!(acl.decide(&k, &mut NullMeter), Action::Permit);
    }

    // --- property tests: trie classifier ≡ linear reference ------------

    fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix { addr, len })
    }

    fn arb_port_range() -> impl Strategy<Value = PortRange> {
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| PortRange::new(a.min(b), a.max(b)))
    }

    fn arb_rule() -> impl Strategy<Value = AclRule> {
        (
            0u32..16,
            arb_prefix(),
            arb_prefix(),
            arb_port_range(),
            arb_port_range(),
            any::<bool>(),
        )
            .prop_map(|(priority, src, dst, src_port, dst_port, drop)| AclRule {
                priority,
                src,
                dst,
                src_port,
                dst_port,
                action: if drop { Action::Drop } else { Action::Permit },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_multi_trie_equals_linear(
            rules in proptest::collection::vec(arb_rule(), 0..40),
            per_trie in 1usize..10,
            seeds in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()), 1..20),
        ) {
            let acl = MultiTrieAcl::build(
                &rules,
                AclBuildConfig { max_rules_per_trie: per_trie, max_tries: None },
            );
            let linear = LinearAcl::new(rules.clone());
            for (s, d, sp, dp, sel) in seeds {
                // Half the keys are random, half derived from a rule.
                let key = if rules.is_empty() || sel % 2 == 0 {
                    PacketKey { src_ip: s, dst_ip: d, src_port: sp, dst_port: dp }
                } else {
                    let r = &rules[(sel as usize / 2) % rules.len()];
                    PacketKey {
                        src_ip: r.src.addr,
                        dst_ip: r.dst.addr,
                        src_port: r.src_port.lo,
                        dst_port: r.dst_port.hi,
                    }
                };
                let got = acl.classify(&key, &mut NullMeter);
                let want = linear.classify(&key);
                prop_assert_eq!(
                    got.map(|m| (m.priority, m.action)),
                    want,
                    "key {}", key
                );
            }
        }
    }
}
