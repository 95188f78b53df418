//! A fixed yardstick for how fast the host runs at the moment of a
//! measurement.
//!
//! The host is shared, and its other tenants slow everything on it, by up
//! to half and for minutes at a time. So each timing is taken together
//! with this kernel, run just before and just after it on the same CPU,
//! and read at the host's reference speed: a time is divided by the
//! kernel's slowdown (its time over [`REFERENCE_S`]), a rate multiplied.
//! The kernel is a few Fiduccia–Mattheyses passes, the bucket-list work
//! the KL sweep does, over a random graph whose adjacency (3.7 MiB) is the
//! size of a detection input's. It is built from constants alone and
//! calls nothing of the program under test, so no change to the program
//! moves it.

use std::time::Instant;

const NODES: usize = 20_000;
/// Edges drawn per node; the graph has about twice this mean degree.
const DRAWS: usize = 24;
const PASSES: usize = 8;

/// A round figure near the kernel's median time on the host the bounds
/// were set on, a two-core shared Xeon VM (300 MiB L3): over 60 runs of
/// 36 seconds, the runs' median slowdowns lay between 0.88 and 1.41. Only
/// the scale of the reported times depends on it.
pub const REFERENCE_S: f64 = 0.08;

/// xorshift64: the kernel's own generator, fixed forever.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The random graph as one flat adjacency array, so that it goes back to
/// the operating system when dropped and leaves a rep's peak RSS alone.
struct Graph {
    start: Vec<usize>,
    adj: Vec<u32>,
}

impl Graph {
    /// Draws the edges twice from the same seed: once to count degrees,
    /// once to place them.
    fn random() -> Graph {
        fn draw(mut visit: impl FnMut(usize, usize)) {
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
            for u in 0..NODES {
                for _ in 0..DRAWS {
                    let v = rng.below(NODES);
                    if v != u {
                        visit(u, v);
                    }
                }
            }
        }
        let mut degree = vec![0usize; NODES];
        draw(|u, v| {
            degree[u] += 1;
            degree[v] += 1;
        });
        let mut start = vec![0; NODES + 1];
        for u in 0..NODES {
            start[u + 1] = start[u] + degree[u];
        }
        let mut fill = start.clone();
        let mut adj = vec![0u32; start[NODES]];
        draw(|u, v| {
            for (a, b) in [(u, v), (v, u)] {
                adj[fill[a]] = b as u32;
                fill[a] += 1;
            }
        });
        Graph { start, adj }
    }

    fn neighbours(&self, u: usize) -> &[u32] {
        &self.adj[self.start[u]..self.start[u + 1]]
    }
}

const NIL: u32 = u32::MAX;

/// Gain buckets: doubly linked lists of unlocked nodes, one per gain.
struct Buckets {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    top: usize,
}

impl Buckets {
    fn insert(&mut self, v: usize, slot: usize) {
        let h = self.head[slot];
        self.next[v] = h;
        self.prev[v] = NIL;
        if h != NIL {
            self.prev[h as usize] = v as u32;
        }
        self.head[slot] = v as u32;
        self.top = self.top.max(slot);
    }

    fn remove(&mut self, v: usize, slot: usize) {
        let (p, n) = (self.prev[v], self.next[v]);
        if p == NIL {
            self.head[slot] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    fn pop_max(&mut self) -> Option<usize> {
        loop {
            let h = self.head[self.top];
            if h != NIL {
                self.remove(h as usize, self.top);
                return Some(h as usize);
            }
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
    }
}

/// Runs the kernel once and returns its wall time in seconds: build the
/// graph, then passes that each move every node once, highest gain first.
pub fn kernel_s() -> f64 {
    let clock = Instant::now();
    let g = Graph::random();
    let max_degree = (0..NODES).map(|u| g.neighbours(u).len()).max().unwrap_or(0);
    // A node's gain, external minus internal neighbours, lies within
    // ±max_degree; its bucket is the gain shifted by max_degree.
    let mut b = Buckets {
        head: vec![NIL; 2 * max_degree + 1],
        next: vec![NIL; NODES],
        prev: vec![NIL; NODES],
        top: 0,
    };
    let mut side: Vec<bool> = (0..NODES).map(|u| u % 2 == 1).collect();
    let mut slot = vec![0usize; NODES];
    let mut locked = vec![false; NODES];
    let mut moves = 0;
    for _ in 0..PASSES {
        b.head.fill(NIL);
        b.top = 0;
        locked.fill(false);
        for u in 0..NODES {
            let nbrs = g.neighbours(u);
            let external = nbrs
                .iter()
                .filter(|&&v| side[v as usize] != side[u])
                .count();
            slot[u] = max_degree + 2 * external - nbrs.len();
            b.insert(u, slot[u]);
        }
        while let Some(u) = b.pop_max() {
            locked[u] = true;
            side[u] = !side[u];
            moves += 1;
            for &v in g.neighbours(u) {
                let v = v as usize;
                if locked[v] {
                    continue;
                }
                b.remove(v, slot[v]);
                // `u` joined `v`'s side or left it.
                slot[v] = if side[v] == side[u] {
                    slot[v] - 2
                } else {
                    slot[v] + 2
                };
                b.insert(v, slot[v]);
            }
        }
    }
    assert_eq!(moves, PASSES * NODES, "every pass moves every node");
    std::hint::black_box(&side);
    clock.elapsed().as_secs_f64()
}

/// Runs the kernel before and after `f` and returns `f`'s result with the
/// host's slowdown around it: the kernel's mean time over [`REFERENCE_S`].
pub fn around<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_s();
    let out = f();
    let after = kernel_s();
    (out, (before + after) / 2.0 / REFERENCE_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_graph_is_symmetric_and_the_kernel_moves_every_node() {
        let g = Graph::random();
        assert_eq!(g.adj.len(), g.start[NODES]);
        for u in (0..NODES).step_by(997) {
            for &v in g.neighbours(u) {
                assert!(g.neighbours(v as usize).contains(&(u as u32)), "{u}-{v}");
            }
        }
        assert!(kernel_s() > 0.0);
    }
}
