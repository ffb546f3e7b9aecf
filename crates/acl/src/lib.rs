//! # fluctrace-acl
//!
//! A from-scratch multi-trie Access Control List packet classifier — the
//! analogue of DPDK's `rte_acl` library that the paper's realistic case
//! study (§IV.C) traces.
//!
//! The three implementation facts the paper identifies as the *cause* of
//! the per-packet performance fluctuation are all reproduced here:
//!
//! 1. rules are stored in **trie structures** keyed on the packet
//!    5-tuple-minus-protocol: source address (4 bytes), destination
//!    address (4 bytes), and source+destination ports (2+2 bytes) — a
//!    12-byte key walked byte-by-byte ([`trie`]);
//! 2. rules are **partitioned across many tries** to bound per-trie
//!    memory ([`builder`]; vanilla DPDK caps the count at 8 tries, the
//!    paper patches it so its 50 000-rule set builds 247 tries);
//! 3. classification cost depends on **how many bytes of the key each
//!    trie has to examine** before it can rule out a match — and that
//!    difference "is amplified by the number of tries because the same
//!    is applicable to every trie".
//!
//! A [`reference`](mod@reference) linear-scan classifier provides the correctness
//! oracle for unit and property tests, and the [`meter`] module exposes
//! the work-metering hook that the simulation layer converts into µops.
//!
//! The crate is pure (no dependency on the simulator), so it doubles as
//! a real, reusable classifier.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod compile;
pub mod key;
pub mod meter;
pub mod reference;
pub mod rule;
pub mod trie;

pub use builder::{table3_rules, AclBuildConfig, MultiTrieAcl};
pub use compile::{CompiledAcl, CompiledTrie};
pub use key::{PacketKey, KEY_BYTES};
pub use meter::{CountingMeter, NullMeter, WorkMeter};
pub use reference::LinearAcl;
pub use rule::{AclRule, Action, Ipv4Prefix, PortRange};
pub use trie::{MatchEntry, Trie};
