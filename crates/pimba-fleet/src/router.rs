//! Front-door request routing: which replica an arriving request is assigned
//! to.
//!
//! The router sees one [`ReplicaLoad`] snapshot per replica at the arrival's
//! timestamp (every replica has been co-simulated up to — but not through —
//! that instant) and returns a replica index. Three classic policies ship:
//!
//! * [`RoundRobin`] — oblivious rotation, the baseline that ignores load,
//! * [`JoinShortestQueue`] — full information: the replica with the fewest
//!   outstanding requests (ties to the lowest index),
//! * [`PowerOfTwoChoices`] — sample two distinct replicas, join the less
//!   loaded; the classic O(1)-information policy that captures most of JSQ's
//!   benefit. Sampling draws from a *dedicated* keyed
//!   [`Pcg32`] substream
//!   ([`Pcg32::keyed_stream`](rand::rngs::Pcg32::keyed_stream)), so routing
//!   decisions are a pure function of `(seed, stream, arrival index)` —
//!   bit-identical across worker-thread counts and grid orderings.

use pimba_serve::traffic::TraceRequest;
use rand::rngs::Pcg32;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Keyed-substream domains of the fleet (see
/// [`Pcg32::keyed_stream`](rand::rngs::Pcg32::keyed_stream)): one constant
/// per sampling concern, so substream identities never depend on call order.
pub mod streams {
    /// Power-of-two-choices sampling of the colocated / prefill front door.
    pub const ROUTER_FRONT: u64 = 0x0F2C_0001;
    /// Power-of-two-choices sampling of the disaggregated decode-pool router.
    pub const ROUTER_DECODE: u64 = 0x0F2C_0002;
    /// Backoff jitter of the fault-recovery retry path (one substream per
    /// `(request id, attempt)` pair, so retries never perturb router draws).
    pub const RETRY_JITTER: u64 = 0x0F2C_0003;
}

/// One replica's load as the router sees it at an arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaLoad {
    /// Requests assigned to the replica and not yet completed — the primary
    /// balancing metric (it is exact at any co-sim instant, independent of
    /// how far the replica's internal event processing has advanced).
    pub outstanding: usize,
    /// Requests waiting for admission (of the arrivals the replica has
    /// processed so far).
    pub queue_depth: usize,
    /// Requests holding a batch slot.
    pub occupancy: usize,
}

/// A request-routing policy.
///
/// `Send` is a supertrait so a boxed router can be stored in a shared
/// checkpoint (the fleet memo's prefix checkpoints); routers are plain state
/// machines, so every implementation satisfies it structurally.
pub trait Router: Send {
    /// Short policy name for records and bench output.
    fn name(&self) -> &'static str;

    /// Picks the replica for arrival `id`. `loads` has one entry per replica
    /// of the pool; the returned index must be within it.
    fn route(&mut self, id: usize, request: &TraceRequest, loads: &[ReplicaLoad]) -> usize;

    /// Clones the router's current state (rotation cursor, RNG stream
    /// position) into an independent boxed copy. The memo grids fork a
    /// stored checkpoint's router on every restore so the stored copy stays
    /// pristine.
    fn fork(&self) -> Box<dyn Router>;
}

/// Load-oblivious rotation over the pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn fork(&self) -> Box<dyn Router> {
        Box::new(*self)
    }

    fn route(&mut self, _id: usize, _request: &TraceRequest, loads: &[ReplicaLoad]) -> usize {
        let choice = self.next % loads.len();
        self.next = (self.next + 1) % loads.len();
        choice
    }
}

/// Join the replica with the fewest outstanding requests (ties to the lowest
/// index).
#[derive(Debug, Default, Clone, Copy)]
pub struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "jsq"
    }

    fn fork(&self) -> Box<dyn Router> {
        Box::new(*self)
    }

    fn route(&mut self, _id: usize, _request: &TraceRequest, loads: &[ReplicaLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.outstanding)
            .map(|(i, _)| i)
            .expect("route over an empty pool")
    }
}

/// Sample two distinct replicas uniformly, join the less loaded (ties to the
/// lower index). Degenerates to the only replica for a pool of one — without
/// consuming entropy, so a single-replica fleet is routing-identical under
/// every policy.
#[derive(Debug, Clone)]
pub struct PowerOfTwoChoices {
    rng: Pcg32,
}

impl PowerOfTwoChoices {
    /// A sampler drawing from the keyed substream `(seed, domain, stream)` —
    /// pass one of the [`streams`] domains plus a per-pool stream id.
    pub fn new(seed: u64, domain: u64, stream: u64) -> Self {
        Self {
            rng: Pcg32::keyed_stream(seed, domain, stream),
        }
    }
}

impl Router for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "po2"
    }

    fn fork(&self) -> Box<dyn Router> {
        Box::new(self.clone())
    }

    fn route(&mut self, _id: usize, _request: &TraceRequest, loads: &[ReplicaLoad]) -> usize {
        let n = loads.len();
        assert!(n > 0, "route over an empty pool");
        if n == 1 {
            return 0;
        }
        // Two distinct uniform samples: the second draws from the remaining
        // n-1 slots and wraps past the first.
        let a = self.rng.gen_range(0..n);
        let b = (a + 1 + self.rng.gen_range(0..n - 1)) % n;
        match loads[a].outstanding.cmp(&loads[b].outstanding) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => a.min(b),
        }
    }
}

/// Tenant-affinity routing: each tenant has a *home* replica
/// (`tenant mod pool size`) it sticks to while the home's load stays within
/// `slack` outstanding requests of the least-loaded replica; beyond that the
/// router spills to the JSQ choice. Affinity keeps a tenant's traffic (and
/// any tenant-local cache/state the replica accumulates) on one machine and
/// isolates classes from each other's bursts, while the spill valve prevents
/// a hot tenant from drowning its home.
#[derive(Debug, Clone, Copy)]
pub struct TenantAffinity {
    /// How many outstanding requests above the fleet minimum the home
    /// replica may carry before the tenant spills (default 2).
    pub slack: usize,
}

impl Default for TenantAffinity {
    fn default() -> Self {
        Self { slack: 2 }
    }
}

impl Router for TenantAffinity {
    fn name(&self) -> &'static str {
        "tenant_affinity"
    }

    fn fork(&self) -> Box<dyn Router> {
        Box::new(*self)
    }

    fn route(&mut self, _id: usize, request: &TraceRequest, loads: &[ReplicaLoad]) -> usize {
        assert!(!loads.is_empty(), "route over an empty pool");
        let home = request.tenant as usize % loads.len();
        let (least, least_load) = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.outstanding)
            .map(|(i, l)| (i, l.outstanding))
            .expect("non-empty pool");
        if loads[home].outstanding <= least_load + self.slack {
            home
        } else {
            least
        }
    }
}

/// Router selector — the value-level form used by fleet configs, grids and
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`JoinShortestQueue`].
    Jsq,
    /// [`PowerOfTwoChoices`].
    PowerOfTwo,
    /// [`TenantAffinity`] with the default spill slack.
    TenantAffinity,
}

impl RouterKind {
    /// The classic load-balancing selectors, in presentation order — the
    /// router axis of the scaling benches. [`RouterKind::TenantAffinity`] is
    /// excluded (it is a placement policy, only meaningful for multi-tenant
    /// traffic) and selected explicitly where wanted.
    pub const ALL: [RouterKind; 3] = [
        RouterKind::RoundRobin,
        RouterKind::Jsq,
        RouterKind::PowerOfTwo,
    ];

    /// Instantiates the router. `seed`/`domain`/`stream` only matter for the
    /// sampling policies (po2); deterministic policies ignore them.
    pub fn build(&self, seed: u64, domain: u64, stream: u64) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::Jsq => Box::new(JoinShortestQueue),
            RouterKind::PowerOfTwo => Box::new(PowerOfTwoChoices::new(seed, domain, stream)),
            RouterKind::TenantAffinity => Box::new(TenantAffinity::default()),
        }
    }

    /// `true` when the policy's choices never read the [`ReplicaLoad`]
    /// snapshot — its full decision sequence is a function of the arrival
    /// order alone. This licenses the colocated loop's *decoupled free-run*:
    /// every arrival is routed and injected up front and each replica steps
    /// to completion once, with no per-arrival horizons. Only
    /// [`RouterKind::RoundRobin`] qualifies; every load-aware policy must
    /// read its snapshots at each arrival instant.
    pub fn load_oblivious(&self) -> bool {
        matches!(self, RouterKind::RoundRobin)
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round_robin",
            RouterKind::Jsq => "jsq",
            RouterKind::PowerOfTwo => "po2",
            RouterKind::TenantAffinity => "tenant_affinity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(outstanding: &[usize]) -> Vec<ReplicaLoad> {
        outstanding
            .iter()
            .map(|&o| ReplicaLoad {
                outstanding: o,
                queue_depth: 0,
                occupancy: 0,
            })
            .collect()
    }

    fn request() -> TraceRequest {
        TraceRequest {
            arrival_ns: 0.0,
            prompt_len: 64,
            output_len: 8,
            ..TraceRequest::default()
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        let l = loads(&[5, 0, 0]);
        let picks: Vec<usize> = (0..6).map(|i| rr.route(i, &request(), &l)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_joins_the_least_loaded_with_low_index_ties() {
        let mut jsq = JoinShortestQueue;
        assert_eq!(jsq.route(0, &request(), &loads(&[3, 1, 2])), 1);
        assert_eq!(jsq.route(1, &request(), &loads(&[2, 1, 1])), 1);
        assert_eq!(jsq.route(2, &request(), &loads(&[0, 0, 0])), 0);
    }

    #[test]
    fn po2_picks_the_less_loaded_of_its_pair_and_is_deterministic() {
        let l = loads(&[9, 0, 9, 9]);
        let route_all = || {
            let mut po2 = PowerOfTwoChoices::new(7, streams::ROUTER_FRONT, 0);
            (0..64)
                .map(|i| po2.route(i, &request(), &l))
                .collect::<Vec<usize>>()
        };
        let a = route_all();
        assert_eq!(a, route_all(), "same substream, same choices");
        // Whenever replica 1 is in the sampled pair it wins; it is sampled
        // often enough to show up.
        assert!(a.contains(&1));
        // And the empty replica never loses to a loaded one: any pick that is
        // not 1 means the pair was among the loaded replicas.
        let mut other = PowerOfTwoChoices::new(8, streams::ROUTER_FRONT, 0);
        let b: Vec<usize> = (0..64).map(|i| other.route(i, &request(), &l)).collect();
        assert_ne!(a, b, "different seeds must sample differently");
    }

    #[test]
    fn po2_single_replica_consumes_no_entropy() {
        let mut po2 = PowerOfTwoChoices::new(7, streams::ROUTER_FRONT, 3);
        let single = loads(&[4]);
        for i in 0..10 {
            assert_eq!(po2.route(i, &request(), &single), 0);
        }
        // The stream is untouched: the next pair-sample matches a fresh
        // sampler's first.
        let mut fresh = PowerOfTwoChoices::new(7, streams::ROUTER_FRONT, 3);
        let pair = loads(&[1, 2]);
        assert_eq!(
            po2.route(10, &request(), &pair),
            fresh.route(0, &request(), &pair)
        );
    }

    #[test]
    fn kind_builds_and_names() {
        for kind in RouterKind::ALL
            .into_iter()
            .chain([RouterKind::TenantAffinity])
        {
            let mut router = kind.build(1, streams::ROUTER_FRONT, 0);
            assert_eq!(router.name(), kind.name());
            let choice = router.route(0, &request(), &loads(&[0, 0]));
            assert!(choice < 2);
        }
    }

    #[test]
    fn tenant_affinity_pins_home_and_spills_under_imbalance() {
        let mut affinity = TenantAffinity::default();
        let request_of = |tenant: u32| TraceRequest {
            tenant,
            ..request()
        };
        // Balanced pool: every tenant lands on its home replica.
        let balanced = loads(&[1, 1, 1, 1]);
        for tenant in 0..8u32 {
            assert_eq!(
                affinity.route(tenant as usize, &request_of(tenant), &balanced),
                tenant as usize % 4
            );
        }
        // Home overloaded past the slack: spill to the least-loaded replica.
        let skewed = loads(&[9, 0, 1, 1]);
        assert_eq!(affinity.route(0, &request_of(0), &skewed), 1);
        // Within slack: stick with home even if not the minimum.
        let slightly = loads(&[2, 0, 1, 1]);
        assert_eq!(affinity.route(0, &request_of(0), &slightly), 0);
    }
}
