//! Consistent-hash tenant routing.
//!
//! A [`HashRing`] maps tenant ids to shards through the classic
//! virtual-node construction: each shard owns `vnodes` pseudo-random
//! points on a `u64` circle, and a tenant routes to the owner of the
//! first point at or after its own hash (wrapping at the top). The two
//! properties the serving layer leans on:
//!
//! * **Determinism** — every point is derived from `(seed, shard,
//!   vnode)` by a splitmix64-style mixer, so the same configuration
//!   routes the same tenants to the same shards on every run (the
//!   benches byte-diff their CSVs on this).
//! * **Bounded remapping** — adding or removing one shard only moves
//!   the tenants whose successor point changed: an expected `1/n`
//!   fraction, not a full reshuffle as with `tenant % n`. The unit
//!   tests pin an upper bound on the remapped fraction.

/// The finalizer of splitmix64 — a full-avalanche `u64 → u64` mixer,
/// used both for ring points and for tenant placement. std-only (the
/// workspace has no crates.io access), matching `sparse::rng`'s choice
/// of generator family.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs — the circle.
    points: Vec<(u64, u32)>,
    /// Virtual nodes per shard.
    vnodes: usize,
    /// Seed every point and placement hash derives from.
    seed: u64,
}

impl HashRing {
    /// Build a ring over shards `0..shards` with `vnodes` points each.
    ///
    /// # Panics
    /// If `shards` or `vnodes` is zero.
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(vnodes > 0, "need at least one virtual node per shard");
        let mut ring = Self {
            points: Vec::with_capacity(shards * vnodes),
            vnodes,
            seed,
        };
        for s in 0..shards {
            ring.insert_points(s as u32);
        }
        ring.points.sort_unstable();
        ring
    }

    fn point_of(&self, shard: u32, vnode: usize) -> u64 {
        mix64(self.seed ^ mix64((u64::from(shard) << 32) | vnode as u64))
    }

    fn insert_points(&mut self, shard: u32) {
        for v in 0..self.vnodes {
            self.points.push((self.point_of(shard, v), shard));
        }
    }

    /// Add a shard's virtual nodes to the ring. Re-adding a present
    /// shard is a no-op, so membership stays one point-set per shard.
    pub fn add_shard(&mut self, shard: u32) {
        if self.contains(shard) {
            return;
        }
        self.insert_points(shard);
        self.points.sort_unstable();
    }

    /// Remove every virtual node of `shard`; its tenants fall through
    /// to the next point on the circle.
    ///
    /// # Panics
    /// If the removal would empty the ring.
    pub fn remove_shard(&mut self, shard: u32) {
        self.points.retain(|&(_, s)| s != shard);
        assert!(!self.points.is_empty(), "cannot remove the last shard");
    }

    /// True if `shard` currently owns points on the ring.
    pub fn contains(&self, shard: u32) -> bool {
        self.points.iter().any(|&(_, s)| s == shard)
    }

    /// Shards currently on the ring.
    pub fn num_shards(&self) -> usize {
        let mut seen: Vec<u32> = self.points.iter().map(|&(_, s)| s).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Route a tenant to its home shard: the owner of the first ring
    /// point at or after the tenant's hash, wrapping past the top.
    ///
    /// A tenant is hashed one mix deeper than a point. Hashed alike,
    /// tenant `v` would sit exactly on shard 0's virtual node `v`, and
    /// every tenant below `vnodes` would route to shard 0.
    pub fn route(&self, tenant: u64) -> u32 {
        let h = mix64(mix64(self.seed ^ mix64(tenant)));
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[if idx == self.points.len() { 0 } else { idx }].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_per_seed() {
        let a = HashRing::new(8, 64, 42);
        let b = HashRing::new(8, 64, 42);
        let c = HashRing::new(8, 64, 43);
        let mut moved = 0;
        for t in 0..10_000u64 {
            assert_eq!(a.route(t), b.route(t), "same seed must agree");
            if a.route(t) != c.route(t) {
                moved += 1;
            }
        }
        assert!(moved > 5_000, "a new seed must reshuffle placement");
    }

    #[test]
    fn every_shard_receives_traffic() {
        let ring = HashRing::new(16, 64, 7);
        let mut hits = [0usize; 16];
        for t in 0..20_000u64 {
            hits[ring.route(t) as usize] += 1;
        }
        for (s, &h) in hits.iter().enumerate() {
            assert!(h > 0, "shard {s} starved");
            // 64 vnodes keep the load within a loose factor of fair
            // share (1250); this guards against gross imbalance, not
            // perfect uniformity.
            assert!(h < 4 * 20_000 / 16, "shard {s} overloaded: {h}");
        }
    }

    #[test]
    fn small_tenant_ids_reach_every_shard() {
        // Tenant ids are small integers; they must not share hashes with
        // the ring's own points.
        let ring = HashRing::new(4, 64, 0x5eed);
        let mut hits = [0usize; 4];
        for t in 0..64u64 {
            hits[ring.route(t) as usize] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 0),
            "tenants 0..64 per shard: {hits:?}"
        );
    }

    #[test]
    fn adding_a_shard_remaps_a_bounded_fraction() {
        let before = HashRing::new(8, 64, 11);
        let mut after = before.clone();
        after.add_shard(8);
        let total = 10_000u64;
        let mut moved = 0usize;
        for t in 0..total {
            let (b, a) = (before.route(t), after.route(t));
            if b != a {
                // Consistent hashing only ever moves tenants *to* the
                // new shard, never between old shards.
                assert_eq!(a, 8, "tenant {t} moved {b}→{a}, not to the new shard");
                moved += 1;
            }
        }
        // Expected share is 1/9 ≈ 11%; allow slack for vnode variance.
        let frac = moved as f64 / total as f64;
        assert!(frac > 0.02, "new shard got almost nothing: {frac}");
        assert!(frac < 0.25, "add remapped too much: {frac}");
    }

    #[test]
    fn remove_then_readd_restores_the_mapping() {
        let original = HashRing::new(8, 32, 3);
        let mut ring = original.clone();
        ring.remove_shard(3);
        assert!(!ring.contains(3));
        assert_eq!(ring.num_shards(), 7);
        for t in 0..2_000u64 {
            assert_ne!(ring.route(t), 3, "removed shard still routed to");
            if original.route(t) != 3 {
                assert_eq!(
                    ring.route(t),
                    original.route(t),
                    "tenant {t} moved although its home shard survived"
                );
            }
        }
        ring.add_shard(3);
        for t in 0..2_000u64 {
            assert_eq!(ring.route(t), original.route(t), "re-add must restore");
        }
    }

    #[test]
    fn readding_a_present_shard_is_a_noop() {
        let mut ring = HashRing::new(4, 16, 9);
        let points_before = ring.points.len();
        ring.add_shard(2);
        assert_eq!(ring.points.len(), points_before);
    }

    #[test]
    #[should_panic(expected = "last shard")]
    fn removing_the_last_shard_panics() {
        let mut ring = HashRing::new(1, 8, 0);
        ring.remove_shard(0);
    }
}
