//! Egress replication by port mask (§VI-A).
//!
//! The crossbar copies a packet once per output port, and egress prunes
//! from each copy the messages that port's subscribers did not ask for.
//! A program's forward sets are bit rows over its own port table — the
//! distinct ports its `Forward` actions name, ascending — so one word
//! covers 64 ports whatever their numbers, the logical up port
//! (`u16::MAX`) included. Per packet, each forwarded message's row,
//! less the ingress port and the ports marked down, is transposed into
//! per-port kept-message sets. Replication then walks the union of the
//! rows in port order, and copies that keep the same messages share
//! one buffer.

use crate::fastpath::EvalPlan;
use crate::packet::Packet;
use crate::switch::SwitchStats;
use camus_core::compiled::ActionId;
use camus_lang::ast::{Action, Port};
use std::collections::HashSet;

/// A program's forward sets as bit rows over its own port table.
#[derive(Debug, Clone, Default)]
pub(crate) struct PortMasks {
    /// The distinct ports named by `Forward` actions, ascending: bit
    /// `b` of a row stands for `ports[b]`.
    ports: Vec<Port>,
    /// Words per row, `ports.len().div_ceil(64)`.
    words: usize,
    /// Action `id`'s forward set is `rows[id * words..][..words]`.
    rows: Vec<u64>,
}

impl PortMasks {
    /// One row per action of the arena, in action-id order.
    pub(crate) fn build(actions: &[Action]) -> PortMasks {
        let mut ports: Vec<Port> =
            actions.iter().filter_map(Action::ports).flatten().copied().collect();
        ports.sort_unstable();
        ports.dedup();
        let words = ports.len().div_ceil(64);
        let mut rows = vec![0; actions.len() * words];
        for (id, action) in actions.iter().enumerate() {
            for port in action.ports().unwrap_or_default() {
                let b = ports.binary_search(port).expect("every forward port is in the table");
                rows[id * words + b / 64] |= 1 << (b % 64);
            }
        }
        PortMasks { ports, words, rows }
    }

    pub(crate) fn ports(&self) -> &[Port] {
        &self.ports
    }

    fn row(&self, id: ActionId) -> &[u64] {
        &self.rows[id.0 as usize * self.words..][..self.words]
    }

    /// The row holding the table's ports that are in `set`.
    fn row_of(&self, set: &HashSet<Port>) -> Vec<u64> {
        let mut row = vec![0; self.words];
        for (b, port) in self.ports.iter().enumerate() {
            if set.contains(port) {
                row[b / 64] |= 1 << (b % 64);
            }
        }
        row
    }
}

/// Indices of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Indices of the set bits of a multi-word row, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| ones(word).map(move |b| w * 64 + b))
}

/// A switch's egress state: its down ports as a row of the live
/// program's port table, and the scratch replication reuses across
/// packets (allocation-free once warm).
#[derive(Debug, Clone, Default)]
pub(crate) struct Egress {
    /// The ports marked down, as a row of the live program's table.
    /// Re-derived whenever the port state or the live program changes.
    down: Vec<u64>,
    /// The packet's ingress port as `(word, bit)`; bit 0 when the
    /// table does not name it.
    ingress: (usize, u64),
    /// Words per kept-message set: the packet's evaluations over 64,
    /// rounded up.
    msg_words: usize,
    /// Union of the packet's egress rows: the ports a copy leaves by.
    union: Vec<u64>,
    /// Port bit `b`'s kept messages are `kept[b * msg_words..][..msg_words]`.
    kept: Vec<u64>,
    /// The packet's pruned copies so far: `(port bit, output index)`.
    pruned: Vec<(usize, usize)>,
    /// Staging buffer for the pruned copy being built.
    stage: Vec<u8>,
}

impl Egress {
    /// Re-derive the down row after the port state or the live program
    /// changed.
    pub(crate) fn set_down(&mut self, masks: &PortMasks, down: &HashSet<Port>) {
        self.down = masks.row_of(down);
    }

    /// Initialise the scratch at a packet's first forwarded message;
    /// the packet evaluates `msgs` messages. A packet that forwards
    /// nothing never gets here.
    pub(crate) fn begin(&mut self, masks: &PortMasks, ingress: Port, msgs: usize) {
        self.ingress = match masks.ports.binary_search(&ingress) {
            Ok(b) => (b / 64, 1 << (b % 64)),
            Err(_) => (0, 0),
        };
        self.msg_words = msgs.div_ceil(64);
        self.union.clear();
        self.union.resize(masks.words, 0);
        self.kept.clear();
        self.kept.resize(masks.ports.len() * self.msg_words, 0);
    }

    /// Route message `index`, whose action `id` is a `Forward`: its row
    /// less the ingress port and the down ports joins the union and the
    /// kept sets, and the drop counters attribute whatever it lost.
    pub(crate) fn forward(
        &mut self,
        masks: &PortMasks,
        id: ActionId,
        index: usize,
        stats: &mut SwitchStats,
    ) {
        let (mut sent, mut down) = (false, 0);
        let (slot, bit) = (index / 64, 1 << (index % 64));
        for (w, &row) in masks.row(id).iter().enumerate() {
            let row = if w == self.ingress.0 { row & !self.ingress.1 } else { row };
            down += (row & self.down[w]).count_ones();
            let egress = row & !self.down[w];
            sent |= egress != 0;
            self.union[w] |= egress;
            for b in ones(egress) {
                self.kept[(w * 64 + b) * self.msg_words + slot] |= bit;
            }
        }
        stats.dropped_port_down += u64::from(down);
        if !sent {
            stats.dropped_messages += 1;
            // Attribute the loss once: a message that lost a down port
            // is a port-down drop (already counted above); otherwise
            // nothing routed it.
            if down == 0 {
                stats.dropped_no_route += 1;
            }
        }
    }

    /// Crossbar replication and egress pruning: one copy per port of
    /// the union, in port order. A copy that keeps every message of an
    /// exactly-sized packet (or any copy of a stack-only one) shares
    /// the input buffer; one that keeps the same messages as an earlier
    /// pruned copy shares that copy's buffer; any other is built from
    /// the plan's geometry into a buffer of its own. Out of line: the
    /// drop path never runs it.
    #[inline(never)]
    pub(crate) fn replicate(
        &mut self,
        masks: &PortMasks,
        plan: &EvalPlan,
        pkt: &Packet,
        total: usize,
        stats: &mut SwitchStats,
        out: &mut Vec<(Port, Packet)>,
    ) {
        let mw = self.msg_words;
        let exact = pkt.len() == plan.msg_offset(total);
        out.reserve(self.union.iter().map(|w| w.count_ones() as usize).sum());
        self.pruned.clear();
        for b in bits(&self.union) {
            let kept = &self.kept[b * mw..][..mw];
            let whole = || kept.iter().map(|w| w.count_ones() as usize).sum::<usize>() == total;
            let twin = || self.pruned.iter().find(|&&(c, _)| self.kept[c * mw..][..mw] == *kept);
            let copy = if plan.framing.message.is_none() || (exact && whole()) {
                stats.shared_copies += 1;
                pkt.clone()
            } else if let Some(&(_, at)) = twin() {
                stats.shared_copies += 1;
                out[at].1.clone()
            } else {
                stats.deep_copies += 1;
                self.pruned.push((b, out.len()));
                plan.prune(pkt, bits(kept), &mut self.stage)
            };
            stats.copies += 1;
            out.push((masks.ports[b], copy));
        }
    }
}
