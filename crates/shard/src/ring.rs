//! Consistent-hash tenant placement.
//!
//! A [`HashRing`] maps tenant ids to shards through the classic
//! virtual-node construction: each shard owns `vnodes` pseudo-random
//! points on a `u64` circle, and a tenant routes to the owner of the
//! first point at or after its own hash (wrapping at the top). Every
//! point is derived from `(seed, shard, vnode)` by a splitmix64-style
//! mixer, so the same configuration routes the same tenants to the same
//! shards on every run (the benches byte-diff their CSVs on this).
//! Membership is fixed at construction.

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

/// The ring point of `shard`'s virtual node `vnode`.
fn point(seed: u64, shard: u32, vnode: usize) -> u64 {
    mix64(seed ^ mix64((u64::from(shard) << 32) | vnode as u64))
}

/// A consistent-hash ring over shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs — the circle.
    points: Vec<(u64, u32)>,
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
        let mut points: Vec<(u64, u32)> = (0..shards as u32)
            .flat_map(|s| (0..vnodes).map(move |v| (point(seed, s, v), s)))
            .collect();
        points.sort_unstable();
        Self { points, seed }
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
}
