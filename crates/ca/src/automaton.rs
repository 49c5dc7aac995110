//! One-dimensional cellular automata with word-parallel stepping.
//!
//! [`Automaton1D`] models the ring of CA cells placed around the sensor
//! array (Fig. 2 of the paper): one cell per row plus one per column, all
//! updated synchronously each compressed-sample period. Stepping is
//! word-parallel — the 8 neighborhood minterms are evaluated with bitwise
//! operations on 64-cell words — which keeps multi-megacell benchmark
//! configurations fast while remaining exactly equivalent to the
//! per-cell reference implementation (tested below).

use crate::rule::ElementaryRule;
use tepics_util::BitVec;

/// Boundary condition of a 1-D automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// Cells form a ring; the paper's configuration (the CA surrounds the
    /// pixel array).
    Periodic,
    /// Cells beyond the edges read as a constant value.
    Fixed(bool),
}

/// A one-dimensional, binary, radius-1 cellular automaton.
///
/// # Examples
///
/// ```
/// use tepics_ca::{Automaton1D, Boundary, ElementaryRule};
///
/// let mut ca = Automaton1D::centered_one(11, ElementaryRule::RULE_30, Boundary::Periodic);
/// ca.step();
/// // Rule 30 from a single seed cell grows the famous triangle.
/// assert_eq!(ca.state().count_ones(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Automaton1D {
    state: BitVec,
    rule: ElementaryRule,
    boundary: Boundary,
    generation: u64,
}

impl Automaton1D {
    /// Creates an automaton with an explicit initial state.
    ///
    /// # Panics
    ///
    /// Panics if the state is empty.
    pub fn new(state: BitVec, rule: ElementaryRule, boundary: Boundary) -> Self {
        assert!(!state.is_empty(), "automaton needs at least one cell");
        Automaton1D {
            state,
            rule,
            boundary,
            generation: 0,
        }
    }

    /// Creates an automaton of `cells` cells, all zero except a single
    /// one at the center — the classic Rule-30 seed.
    pub fn centered_one(cells: usize, rule: ElementaryRule, boundary: Boundary) -> Self {
        let mut state = BitVec::zeros(cells);
        state.set(cells / 2, true);
        Automaton1D::new(state, rule, boundary)
    }

    /// Creates an automaton whose initial state is expanded
    /// deterministically from a 64-bit seed (SplitMix64 stream).
    ///
    /// This is the seeding used by the imager: the decoder reconstructs
    /// the identical strategy from the same 64-bit value.
    pub fn from_seed(cells: usize, seed: u64, rule: ElementaryRule, boundary: Boundary) -> Self {
        let mut rng = tepics_util::SplitMix64::new(seed);
        let words = (0..cells.div_ceil(64)).map(|_| rng.next_u64()).collect();
        Automaton1D::new(BitVec::from_words(cells, words), rule, boundary)
    }

    /// Current cell states.
    pub fn state(&self) -> &BitVec {
        &self.state
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// `true` if the automaton has no cells (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The update rule.
    pub fn rule(&self) -> ElementaryRule {
        self.rule
    }

    /// The boundary condition.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Number of steps taken since construction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances one generation (word-parallel).
    pub fn step(&mut self) {
        let l = self.neighbor_left();
        let r = self.neighbor_right();
        let s = &self.state;
        let n_words = s.as_words().len();
        let mut out = vec![0u64; n_words];
        let rule = self.rule.number();
        // Rule 30 fast path: NS = L ^ (S | R).
        if rule == 30 {
            for (j, o) in out.iter_mut().enumerate() {
                *o = l.as_words()[j] ^ (s.as_words()[j] | r.as_words()[j]);
            }
        } else {
            // Generic: OR of the minterms whose rule bit is set.
            for (j, o) in out.iter_mut().enumerate() {
                let (lw, sw, rw) = (l.as_words()[j], s.as_words()[j], r.as_words()[j]);
                let mut acc = 0u64;
                for idx in 0..8u8 {
                    if (rule >> idx) & 1 == 1 {
                        let a = if idx & 4 != 0 { lw } else { !lw };
                        let b = if idx & 2 != 0 { sw } else { !sw };
                        let c = if idx & 1 != 0 { rw } else { !rw };
                        acc |= a & b & c;
                    }
                }
                *o = acc;
            }
        }
        self.state = BitVec::from_words(self.state.len(), out);
        self.generation += 1;
    }

    /// Advances `n` generations.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Vector `L` with `L[i] = state[i-1]` under the boundary condition.
    fn neighbor_left(&self) -> BitVec {
        let len = self.state.len();
        let words = self.state.as_words();
        let mut out = vec![0u64; words.len()];
        for j in 0..words.len() {
            out[j] = words[j] << 1;
            if j > 0 {
                out[j] |= words[j - 1] >> 63;
            }
        }
        let mut bv = BitVec::from_words(len, out);
        let edge = match self.boundary {
            Boundary::Periodic => self.state.get(len - 1),
            Boundary::Fixed(v) => v,
        };
        bv.set(0, edge);
        bv
    }

    /// Vector `R` with `R[i] = state[i+1]` under the boundary condition.
    fn neighbor_right(&self) -> BitVec {
        let len = self.state.len();
        let words = self.state.as_words();
        let mut out = vec![0u64; words.len()];
        for j in 0..words.len() {
            out[j] = words[j] >> 1;
            if j + 1 < words.len() {
                out[j] |= words[j + 1] << 63;
            }
        }
        // Bit (len-1) currently holds either garbage from the next word
        // (none) or zero; fix it up per the boundary.
        let mut bv = BitVec::from_words(len, out);
        let edge = match self.boundary {
            Boundary::Periodic => self.state.get(0),
            Boundary::Fixed(v) => v,
        };
        bv.set(len - 1, edge);
        bv
    }

    /// Runs the automaton and collects `rows` successive states
    /// (including the current one) — the classic space–time diagram.
    pub fn space_time(&mut self, rows: usize) -> Vec<BitVec> {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(self.state.clone());
            self.step();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell reference step: the next generation of `state`
    /// under `rule` and `boundary`, computed one cell at a time.
    fn step_reference(state: &BitVec, rule: ElementaryRule, boundary: Boundary) -> BitVec {
        let len = state.len();
        let get = |i: isize| -> bool {
            if i < 0 || i as usize >= len {
                match boundary {
                    Boundary::Periodic => state.get(((i + len as isize) as usize) % len),
                    Boundary::Fixed(v) => v,
                }
            } else {
                state.get(i as usize)
            }
        };
        BitVec::from_bools((0..len).map(|i| {
            let i = i as isize;
            rule.next(get(i - 1), get(i), get(i + 1))
        }))
    }

    fn run_both(cells: usize, rule: u8, boundary: Boundary, steps: usize, seed: u64) {
        let mut fast = Automaton1D::from_seed(cells, seed, ElementaryRule::new(rule), boundary);
        let mut slow = fast.state().clone();
        for step in 0..steps {
            fast.step();
            slow = step_reference(&slow, fast.rule(), fast.boundary());
            assert_eq!(
                fast.state(),
                &slow,
                "rule {rule}, {cells} cells, boundary {boundary:?}, diverged at step {step}"
            );
        }
    }

    #[test]
    fn word_parallel_matches_reference_rule_30() {
        for cells in [1, 2, 3, 63, 64, 65, 128, 200] {
            run_both(cells, 30, Boundary::Periodic, 32, 0xC0FFEE);
            run_both(cells, 30, Boundary::Fixed(false), 32, 0xC0FFEE);
        }
    }

    #[test]
    fn word_parallel_matches_reference_many_rules() {
        for rule in [0u8, 1, 45, 54, 90, 110, 150, 184, 255] {
            run_both(100, rule, Boundary::Periodic, 16, 42);
            run_both(100, rule, Boundary::Fixed(true), 16, 42);
        }
    }

    #[test]
    fn rule_30_triangle_from_center_seed() {
        // Known first rows of rule 30 from a single centered 1
        // (infinite background; wide fixed-boundary array emulates it).
        let mut ca = Automaton1D::centered_one(21, ElementaryRule::RULE_30, Boundary::Fixed(false));
        let rows = ca.space_time(5);
        let render: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        assert_eq!(render[0], "000000000010000000000");
        assert_eq!(render[1], "000000000111000000000");
        assert_eq!(render[2], "000000001100100000000");
        assert_eq!(render[3], "000000011011110000000");
        assert_eq!(render[4], "000000110010001000000");
    }

    #[test]
    fn generation_counter_advances() {
        let mut ca = Automaton1D::centered_one(16, ElementaryRule::RULE_30, Boundary::Periodic);
        assert_eq!(ca.generation(), 0);
        ca.step_n(10);
        assert_eq!(ca.generation(), 10);
    }

    #[test]
    fn rule_0_clears_everything() {
        let mut ca = Automaton1D::from_seed(77, 1, ElementaryRule::new(0), Boundary::Periodic);
        ca.step();
        assert_eq!(ca.state().count_ones(), 0);
    }

    #[test]
    fn rule_204_is_identity() {
        // Rule 204 = S (each cell keeps its state).
        let mut ca = Automaton1D::from_seed(130, 99, ElementaryRule::new(204), Boundary::Periodic);
        let before = ca.state().clone();
        ca.step_n(5);
        assert_eq!(*ca.state(), before);
    }

    #[test]
    fn periodic_boundary_wraps() {
        // Rule 2: NS = 1 iff (L,S,R) = (0,0,1): a lone 1 moves left.
        let mut state = BitVec::zeros(8);
        state.set(0, true);
        let mut ca = Automaton1D::new(state, ElementaryRule::new(2), Boundary::Periodic);
        ca.step();
        assert!(ca.state().get(7), "the 1 must wrap to the last cell");
        assert_eq!(ca.state().count_ones(), 1);
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Automaton1D::from_seed(128, 7, ElementaryRule::RULE_30, Boundary::Periodic);
        let mut b = Automaton1D::from_seed(128, 7, ElementaryRule::RULE_30, Boundary::Periodic);
        a.step_n(100);
        b.step_n(100);
        assert_eq!(a.state(), b.state());
        let mut c = Automaton1D::from_seed(128, 8, ElementaryRule::RULE_30, Boundary::Periodic);
        c.step_n(100);
        assert_ne!(a.state(), c.state(), "different seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_automaton_panics() {
        Automaton1D::new(
            BitVec::zeros(0),
            ElementaryRule::RULE_30,
            Boundary::Periodic,
        );
    }
}
