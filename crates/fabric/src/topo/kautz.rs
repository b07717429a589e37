//! Kautz-graph topologies (Fig 6 of the paper).
//!
//! The switches form the Kautz graph `K(b, n)`: vertices are strings
//! `s_0 s_1 … s_n` over an alphabet of `b+1` symbols with `s_i ≠ s_(i+1)`,
//! and there is an edge `s_0…s_n → s_1…s_n x` for every `x ≠ s_n`. This
//! gives `(b+1)·b^n` switches of in/out degree `b` and the smallest known
//! diameter (`n+1`) for the size. Endpoints are distributed round-robin
//! across the switches, as in the paper ("the switches build the Kautz
//! graph and endpoints are connected to them").

use super::attach_terminals;
use crate::{Network, NetworkBuilder};

/// Number of switches of `K(b, n)`: `(b+1) * b^n`.
pub fn kautz_num_switches(b: usize, n: usize) -> usize {
    (b + 1) * b.pow(n as u32)
}

/// Build a Kautz network `K(b, n)` with `terminals` endpoints.
///
/// With `bidirectional = true` (the realistic InfiniBand cabling the
/// paper's simulations assume) each Kautz edge becomes a bidirectional
/// cable; edge pairs `{u→v, v→u}` that both occur in the digraph are
/// merged into a single cable. With `false`, the classical unidirectional
/// Kautz digraph is built (plus bidirectional terminal attachments).
pub fn kautz(b: usize, n: usize, terminals: usize, bidirectional: bool) -> Network {
    assert!(b >= 2, "Kautz degree must be >= 2");
    assert!(n >= 1, "Kautz string length must be >= 1");
    let num = kautz_num_switches(b, n);

    // Enumerate vertices as digit strings. A vertex is numbered by its
    // first symbol (b+1 choices) followed by n "offsets" in 0..b, where
    // offset o at position i encodes the o-th symbol != s_(i-1).
    let string_of = |mut idx: usize| -> Vec<u8> {
        let mut s = Vec::with_capacity(n + 1);
        let mut rem = idx % b.pow(n as u32);
        idx /= b.pow(n as u32);
        s.push(idx as u8); // first symbol 0..=b
        for i in 0..n {
            let shift = (n - 1 - i) as u32;
            let o = (rem / b.pow(shift)) as u8;
            rem %= b.pow(shift);
            let prev = s[i];
            // o-th symbol of {0..=b} \ {prev}
            let sym = if o < prev { o } else { o + 1 };
            s.push(sym);
        }
        s
    };
    let index_of = |s: &[u8]| -> usize {
        let mut idx = s[0] as usize;
        for i in 1..=n {
            let prev = s[i - 1];
            let sym = s[i];
            let o = if sym < prev { sym } else { sym - 1 } as usize;
            idx = idx * b + o;
        }
        idx
    };

    // Degree: b in + b out; bidirectional merging can make the physical
    // degree up to 2b cables. Terminals round-robin.
    let t_base = terminals / num;
    let t_extra = terminals % num;
    let radix = (2 * b + t_base + usize::from(t_extra > 0)) as u16;

    let mut bld = NetworkBuilder::new();
    bld.label(format!("kautz({b},{n};{terminals})"));
    let switches: Vec<_> = (0..num)
        .map(|i| bld.add_switch(format!("s{i}"), radix))
        .collect();

    let mut cabled = telemetry::fx::FxHashSet::default();
    for u in 0..num {
        let s = string_of(u);
        for x in 0..=(b as u8) {
            if x == s[n] {
                continue;
            }
            let mut t = s[1..].to_vec();
            t.push(x);
            let v = index_of(&t);
            debug_assert_eq!(string_of(v), t);
            if bidirectional {
                if cabled.insert((u.min(v), u.max(v))) {
                    bld.link(switches[u], switches[v]).unwrap();
                }
            } else {
                bld.add_channel(switches[u], switches[v]).unwrap();
            }
        }
    }
    let mut tid = 0;
    for (i, &s) in switches.iter().enumerate() {
        let share = t_base + usize::from(i < t_extra);
        attach_terminals(&mut bld, s, share, &mut tid);
    }
    bld.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_count_formula() {
        assert_eq!(kautz_num_switches(2, 2), 12);
        assert_eq!(kautz_num_switches(2, 3), 24);
        assert_eq!(kautz_num_switches(3, 3), 108);
    }

    #[test]
    fn directed_kautz_has_degree_b() {
        let net = kautz(2, 2, 0, false);
        assert_eq!(net.num_switches(), 12);
        for &s in net.switches() {
            assert_eq!(net.out_channels(s).len(), 2);
            assert_eq!(net.in_channels(s).len(), 2);
        }
        assert!(net.is_strongly_connected());
        net.validate().unwrap();
    }

    #[test]
    fn directed_kautz_diameter_is_n_plus_one() {
        let net = kautz(2, 2, 0, false);
        assert_eq!(net.diameter(), Some(3));
        let net = kautz(3, 2, 0, false);
        assert_eq!(net.diameter(), Some(3));
    }

    #[test]
    fn bidirectional_kautz_is_connected_and_valid() {
        let net = kautz(2, 2, 24, true);
        assert_eq!(net.num_switches(), 12);
        assert_eq!(net.num_terminals(), 24);
        assert!(net.is_strongly_connected());
        net.validate().unwrap();
        // Every inter-switch channel has a reverse in bidirectional mode.
        for (_, c) in net.channels() {
            assert!(c.rev.is_some());
        }
    }

    #[test]
    fn terminals_distributed_round_robin() {
        let net = kautz(2, 2, 14, true);
        // 12 switches, 14 terminals: two switches get 2, rest get 1.
        let mut counts = vec![0usize; net.num_switches()];
        for &t in net.terminals() {
            let sw = net.channel(net.out_channels(t)[0]).dst;
            counts[net.switch_index(sw).unwrap()] += 1;
        }
        assert_eq!(counts.iter().filter(|&&c| c == 2).count(), 2);
        assert_eq!(counts.iter().filter(|&&c| c == 1).count(), 10);
    }

    #[test]
    fn vertex_numbering_round_trips() {
        // implicit via debug_assert in kautz(); also exercise larger b/n.
        let net = kautz(3, 3, 0, false);
        assert_eq!(net.num_switches(), 108);
        net.validate().unwrap();
    }
}
