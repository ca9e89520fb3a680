//! Starvation-proof weighted fair queuing across tenants.
//!
//! Classic WFQ / start-time fair queuing: each tenant is a *flow* with
//! a quota weight; every enqueued item is stamped with a virtual finish
//! time `vft = max(flow.vt, global_vt) + cost / (quota × priority)`,
//! and dequeue always picks the flow whose head has the smallest
//! stamp. Two properties fall out:
//!
//! * **Starvation-proof**: stamps are finite and strictly increasing
//!   within a flow, and the global virtual clock only advances to the
//!   stamp of dequeued work — so any queued item's stamp is eventually
//!   the minimum. Every admitted item is dequeued in bounded turns.
//! * **Quota tracking**: with all flows backlogged, flow `i` receives
//!   a share of dequeues proportional to its weight (the fairness
//!   proptest pins this within tolerance).
//!
//! The scheduler is deliberately pure (no threads, no clocks) so its
//! fairness properties are testable in isolation; the server wraps it
//! in a mutex, and each worker dequeues from it when it is free.

use std::collections::{HashMap, VecDeque};

/// Default quota weight for tenants never configured explicitly.
pub const DEFAULT_WEIGHT: f64 = 1.0;

struct Entry<T> {
    vft: f64,
    item: T,
}

struct Flow<T> {
    weight: f64,
    /// The flow's virtual time: the stamp of its most recent enqueue.
    vt: f64,
    queue: VecDeque<Entry<T>>,
}

/// A pure weighted-fair-queuing scheduler over named flows (tenants).
pub struct FairScheduler<T> {
    flows: HashMap<String, Flow<T>>,
    global_vt: f64,
    depth: usize,
}

impl<T> FairScheduler<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        FairScheduler {
            flows: HashMap::new(),
            global_vt: 0.0,
            depth: 0,
        }
    }

    /// Sets a tenant's quota weight (clamped to a small positive floor
    /// so a zero/negative quota cannot produce infinite stamps).
    pub fn set_weight(&mut self, tenant: &str, weight: f64) {
        let w = if weight.is_finite() && weight > 0.0 {
            weight
        } else {
            DEFAULT_WEIGHT
        };
        self.flow_mut(tenant).weight = w;
    }

    fn flow_mut(&mut self, tenant: &str) -> &mut Flow<T> {
        if !self.flows.contains_key(tenant) {
            self.flows.insert(
                tenant.to_string(),
                Flow {
                    weight: DEFAULT_WEIGHT,
                    vt: 0.0,
                    queue: VecDeque::new(),
                },
            );
        }
        self.flows.get_mut(tenant).expect("just inserted")
    }

    /// Queued items for one tenant.
    pub fn depth(&self, tenant: &str) -> usize {
        self.flows.get(tenant).map_or(0, |f| f.queue.len())
    }

    /// Queued items across all tenants.
    pub fn total_depth(&self) -> usize {
        self.depth
    }

    /// Enqueues an item for `tenant` with the given virtual `cost` and
    /// priority weight; returns the tenant's queue depth afterwards.
    pub fn enqueue(&mut self, tenant: &str, priority_weight: f64, cost: f64, item: T) -> usize {
        let global_vt = self.global_vt;
        let flow = self.flow_mut(tenant);
        let rate = (flow.weight * priority_weight.max(1e-9)).max(1e-9);
        let start = flow.vt.max(global_vt);
        let vft = start + cost.max(0.0) / rate;
        flow.vt = vft;
        flow.queue.push_back(Entry { vft, item });
        let depth = flow.queue.len();
        self.depth += 1;
        depth
    }

    /// Dequeues the item with the smallest virtual finish time across
    /// all flows, advancing the global virtual clock to its stamp.
    pub fn dequeue(&mut self) -> Option<T> {
        let tenant = self
            .flows
            .iter()
            .filter_map(|(name, f)| f.queue.front().map(|e| (name, e.vft)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)))
            .map(|(name, _)| name.clone())?;
        let flow = self.flows.get_mut(&tenant).expect("selected flow exists");
        let entry = flow.queue.pop_front().expect("selected head exists");
        self.global_vt = self.global_vt.max(entry.vft);
        self.depth -= 1;
        Some(entry.item)
    }
}

impl<T> Default for FairScheduler<T> {
    fn default() -> Self {
        FairScheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_flow_order_is_fifo() {
        let mut s = FairScheduler::new();
        // High priority enqueued later must not overtake the same
        // tenant's earlier item — that is the starvation guarantee.
        s.enqueue("a", 1.0, 1.0, 1);
        s.enqueue("a", 8.0, 1.0, 2);
        assert_eq!(s.dequeue(), Some(1));
        assert_eq!(s.dequeue(), Some(2));
        assert_eq!(s.dequeue(), None);
    }

    #[test]
    fn weights_shape_interleaving() {
        let mut s = FairScheduler::new();
        s.set_weight("heavy", 3.0);
        s.set_weight("light", 1.0);
        for i in 0..12 {
            s.enqueue("heavy", 1.0, 1.0, ("heavy", i));
            s.enqueue("light", 1.0, 1.0, ("light", i));
        }
        let first_eight: Vec<_> = (0..8).map(|_| s.dequeue().unwrap().0).collect();
        let heavy = first_eight.iter().filter(|&&t| t == "heavy").count();
        assert!(
            heavy >= 5,
            "3:1 weights must skew early service: {first_eight:?}"
        );
        // Everything still drains.
        while s.dequeue().is_some() {}
        assert_eq!(s.total_depth(), 0);
    }

    #[test]
    fn idle_flow_rejoins_at_the_global_clock() {
        let mut s = FairScheduler::new();
        for i in 0..100 {
            s.enqueue("busy", 1.0, 1.0, ("busy", i));
        }
        for _ in 0..50 {
            s.dequeue();
        }
        // A newcomer does not get 50 units of banked credit — it joins
        // at the current virtual time and interleaves, rather than
        // monopolizing the scheduler.
        s.enqueue("new", 1.0, 1.0, ("new", 0));
        let next_two: Vec<_> = (0..2).map(|_| s.dequeue().unwrap().0).collect();
        assert!(next_two.contains(&"new"));
        assert!(next_two.contains(&"busy"));
    }
}
