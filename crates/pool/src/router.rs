//! Power-of-two-choices shard routing.
//!
//! The router's decision is a pure function ([`choose`]) over a
//! snapshot of per-replica queue depths and breaker availability plus
//! two sampled candidate indices — no clocks, no RNG, no locks — so
//! the routing invariants are directly proptestable:
//!
//! 1. an unavailable (breaker-open) replica is never chosen while any
//!    available replica exists;
//! 2. when both sampled candidates are available, the shallower queue
//!    wins (ties go to the first sample).
//!
//! The stateful part — sampling the two candidates and advancing the
//! round-robin cursor — lives in [`crate::pool::ReplicaPool`].

/// How a routing decision was reached, for the
/// `snn_pool_router_*_total` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Depth comparison between two sampled candidates (or the only
    /// available one of the two).
    P2c,
    /// Both sampled candidates were unavailable; fell back to a
    /// round-robin scan for the first available replica — or, with
    /// every breaker open, to the raw cursor position (whose breaker
    /// then answers `CircuitOpen` or admits its half-open probe).
    Fallback,
}

/// Picks a replica.
///
/// `depths[i]` is replica `i`'s queue depth and `available[i]` whether
/// its circuit breaker currently admits work; `a` and `b` are the two
/// sampled candidate indices (they may collide — that is part of p2c's
/// contract); `rr` is the round-robin cursor used when both samples
/// are unavailable. All indices are taken modulo the replica count.
///
/// # Panics
///
/// Panics if `depths` is empty or the slice lengths differ.
pub fn choose(depths: &[usize], available: &[bool], a: usize, b: usize, rr: usize) -> (usize, Decision) {
    assert!(!depths.is_empty(), "router needs at least one replica");
    assert_eq!(depths.len(), available.len(), "depths/available must align");
    let n = depths.len();
    let (a, b) = (a % n, b % n);
    match (available[a], available[b]) {
        (true, true) => {
            // Shallower of the two; tie goes to the first sample.
            (if depths[b] < depths[a] { b } else { a }, Decision::P2c)
        }
        (true, false) => (a, Decision::P2c),
        (false, true) => (b, Decision::P2c),
        (false, false) => {
            // Round-robin scan for any available replica; if every
            // breaker is open, route to the cursor anyway and let that
            // breaker reject typed.
            let start = rr % n;
            let idx = (0..n).map(|k| (start + k) % n).find(|&i| available[i]).unwrap_or(start);
            (idx, Decision::Fallback)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn picks_shallower_of_two() {
        let depths = [5, 1, 9];
        let avail = [true, true, true];
        assert_eq!(choose(&depths, &avail, 0, 1, 0), (1, Decision::P2c));
        assert_eq!(choose(&depths, &avail, 1, 2, 0), (1, Decision::P2c));
        // Tie goes to the first sample.
        assert_eq!(choose(&[3, 3], &[true, true], 1, 0, 0), (1, Decision::P2c));
    }

    #[test]
    fn avoids_open_breaker() {
        let depths = [0, 100];
        // Replica 0 is shallower but open: must pick 1.
        assert_eq!(choose(&depths, &[false, true], 0, 1, 0), (1, Decision::P2c));
        // Both samples open, replica 2 closed: round-robin finds it.
        let (idx, d) = choose(&[0, 0, 7], &[false, false, true], 0, 1, 0);
        assert_eq!((idx, d), (2, Decision::Fallback));
    }

    #[test]
    fn all_open_routes_to_cursor() {
        let (idx, d) = choose(&[0, 0], &[false, false], 0, 1, 3);
        assert_eq!(d, Decision::Fallback);
        assert_eq!(idx, 1, "cursor 3 % 2 replicas");
    }

    /// Expands scalar draws into a replica snapshot: 6 bits of depth
    /// per replica from `depth_seed`, one availability bit per replica
    /// from `avail_mask`.
    fn snapshot(n: usize, depth_seed: u64, avail_mask: u64) -> (Vec<usize>, Vec<bool>) {
        let depths = (0..n).map(|i| ((depth_seed >> (i * 8)) & 0x3f) as usize).collect();
        let avail = (0..n).map(|i| (avail_mask >> i) & 1 == 1).collect();
        (depths, avail)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Invariant 1: never routes to an unavailable replica while
        /// an available one exists.
        #[test]
        fn never_open_when_closed_exists(
            n in 1usize..8,
            depth_seed in any::<u64>(),
            avail_mask in any::<u64>(),
            a in 0usize..64, b in 0usize..64, rr in 0usize..64,
        ) {
            let (depths, avail) = snapshot(n, depth_seed, avail_mask);
            let (idx, _) = choose(&depths, &avail, a, b, rr);
            prop_assert!(idx < n);
            if avail.iter().any(|&x| x) {
                prop_assert!(avail[idx], "routed to open replica with a closed one available");
            }
        }

        /// Invariant 2: with both sampled candidates available, the
        /// choice is the shallower of the two (tie → first sample).
        #[test]
        fn depth_choice_is_shallower(
            n in 1usize..8,
            depth_seed in any::<u64>(),
            a in 0usize..64, b in 0usize..64,
        ) {
            let (depths, _) = snapshot(n, depth_seed, 0);
            let avail = vec![true; n];
            let (idx, decision) = choose(&depths, &avail, a, b, 0);
            let (a, b) = (a % n, b % n);
            prop_assert_eq!(decision, Decision::P2c);
            prop_assert!(idx == a || idx == b, "p2c picks one of its samples");
            prop_assert!(depths[idx] <= depths[a] && depths[idx] <= depths[b]);
            if depths[a] == depths[b] {
                prop_assert_eq!(idx, a, "tie goes to the first sample");
            }
        }
    }
}
