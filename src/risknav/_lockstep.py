"""The lockstep engine of a sweep: a batch of one level's episodes,
stepped together with exactly the draws of the scalar loop.

This is event-based Monte Carlo (Brown and Martin, Progress in Nuclear
Energy, 1984): one loop step advances every live episode of the batch by
one tick, as numpy operations over the int columns of the human table and
a table of numbered steps.  Each episode still reads its own PCG64 stream
(O'Neill, 2014), a block of raw words at a time, so outcomes are those of
sim._ticks, which stays the reference engine and finishes what this one
hands off.  _Steps, the step store that both engines read, is here too,
since it keeps numpy arrays; sim imports this module when its first
episode runs.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple

import numpy as np

from . import sim
from .env import _full
from .human import HumanState, _human_table, _predicted
from .planner import order_tasks
from .sim import (_MASK32, CATASTROPHIC, HOLD_TIMEOUT, REDIRECT_PATIENCE,
                  _Draws, _episode, _pcg64_states, _redirect_target,
                  _ticks)

# A lockstep episode reads this many raw words of its stream, at most 3 a
# tick, and goes on on the scalar loop when it needs more.
_BLOCK = 96
# A human table's steps keep one cell per heat, robot node and waypoint;
# past this many cells the table is emptied before it takes a new row, or
# between loop steps in a batch, and a batch that could pass it in one
# loop step, one new heat per episode, runs on the scalar loop.
_CELLS = 1 << 22
# Why a lockstep episode leaves its batch.
_WON, _TIMED_OUT, _CRASHED, _HANDED_OFF = 1, 2, 3, 4


class _Columns:
    """A human table's rows as numpy int columns, indexed by id; the
    table keeps them as its cols.

    pos, goal (-1 for none) and deg, the position's degree; follow and
    heat, the follow successor's id and the _Heat's id; and first, where
    the row's divergence successors start in divs, one slot per
    neighbour.  sync adds new rows in id order with -1 in follow, heat
    and divs, which the fills copy from the rows, filling them first when
    needed.  Arrays grow by doubling, and divs keeps a spare slot, so a
    gather at first of a degree-0 row stays in bounds.
    """

    __slots__ = ("n", "used", "pos", "goal", "deg", "follow", "heat",
                 "first", "divs")

    def __init__(self):
        self.n = self.used = 0
        for name in self.__slots__[2:]:
            setattr(self, name, np.empty(0, np.intp))

    def sync(self, g, rows):
        """Add the rows that came after the last sync; returns self."""
        n, m = self.n, len(rows)
        if n == m:
            return self
        new = [row[0] for row in rows[n:]]
        degs = [len(g._hops[h.position]) for h in new]
        starts = list(itertools.accumulate(degs, initial=self.used))
        if m > len(self.pos):
            size = max(64, 2 * m)
            for name in ("pos", "goal", "deg", "follow", "heat", "first"):
                setattr(self, name, np.resize(getattr(self, name), size))
        if starts[-1] >= len(self.divs):
            self.divs = np.resize(self.divs, max(256, 2 * starts[-1]))
        self.pos[n:m] = [h.position for h in new]
        self.goal[n:m] = [-1 if h.goal is None else h.goal for h in new]
        self.deg[n:m] = degs
        self.first[n:m] = starts[:-1]
        self.follow[n:m] = self.heat[n:m] = -1
        self.divs[self.used:starts[-1]] = -1
        self.n, self.used = m, starts[-1]
        return self

    def fill_successors(self, table, g, pairs):
        """Copy, for each (hid, k) of pairs, the follow successor of state
        hid, or where k is not -1 its divergence successor toward its k-th
        neighbour, from table's rows."""
        for hid, k in pairs:
            if k < 0:
                self.follow[hid] = table.follow(g, hid)
            else:
                self.divs[self.first[hid] + k] = table.diverge(g, hid, k)

    def fill_heats(self, table, g, hids):
        """Copy the _Heat id of each of hids from table's rows."""
        for hid in hids:
            self.heat[hid] = table.heat(g, hid).id


def _columns(table, g):
    """table's rows as its _Columns, with any rows added since the last
    call."""
    if table.cols is None:
        table.cols = _Columns()
    return table.cols.sync(g, table.rows)


class _Steps:
    """A human table's steps toward one mission's waypoints, by number:
    the step store of both engines.

    cells holds one row per heat id, of one cell per (robot, index of the
    target in waypoints) holding that step's number, -1 until filled.  By
    number, plans holds _plan_step's (path nodes, heated row of the first
    edge, its effective success), which the scalar loop reads; columns
    gives the lockstep engine the same steps as arrays.  Past
    _STEP_MEMO_LIMIT steps the store is emptied before it grows, between
    loop steps in a batch; cells grow to at most twice _CELLS.
    """

    __slots__ = ("waypoints", "width", "cells", "plans", "cols", "synced")

    def __init__(self, n, waypoints):
        self.waypoints = waypoints
        self.width = n * len(waypoints)
        self.cells = np.empty(0, np.int32)
        self.plans = []
        self.cols = (np.empty(0, np.int32), np.empty(0), np.empty(0),
                     np.empty(0))
        self.synced = 0

    def clear(self):
        """Forget every step, keeping the arrays."""
        self.cells[:] = -1
        self.plans.clear()
        self.synced = 0

    def full(self, heats):
        """Whether the cells of that many heat ids pass _CELLS."""
        return heats * self.width > _CELLS

    def cells_of(self, heats, robot, way, count):
        """The cell of each (heat id, robot, waypoint index), given that
        heat ids are below count."""
        if count * self.width > len(self.cells):
            size = max(count, min(count + count // 2 + 16,
                                  2 * _CELLS // self.width))
            self.cells = _grown(self.cells, size * self.width)
        return heats * self.width + robot * len(self.waypoints) + way

    def number(self, g, cell, heat, robot, target):
        """The number of the step in cell, from robot toward target under
        heat, planned and numbered when the cell is empty."""
        number = self.cells[cell]
        if number < 0:
            number = self.cells[cell] = len(self.plans)
            self.plans.append(sim._plan_step(g, robot, target, heat))
        return number

    def plan(self, g, heat, robot, target, way):
        """The scalar loop's step: the plan under heat from robot toward
        target, the way-th waypoint."""
        cell = self.cells_of(heat.id, robot, way, heat.id + 1)
        if self.cells[cell] < 0 and _full(self.plans):
            self.clear()
        return self.plans[self.number(g, cell, heat, robot, target)]

    def columns(self):
        """By number, the next node, p_success and p_success + p_retry of
        the heated row and its effective success, as arrays."""
        lo, hi = self.synced, len(self.plans)
        if lo < hi:
            if hi > len(self.cols[0]):
                self.cols = tuple(_grown(a, hi + hi // 2 + 256)
                                  for a in self.cols)
            nxt, ps, psr, eff = self.cols
            new = self.plans[lo:]
            nxt[lo:hi] = [nodes[1] for nodes, _, _ in new]
            ps[lo:hi] = [probs.p_success for _, probs, _ in new]
            psr[lo:hi] = [probs.p_success + probs.p_retry
                          for _, probs, _ in new]
            eff[lo:hi] = [e for _, _, e in new]
            self.synced = hi
        return self.cols


def _steps(table, g, mission):
    """table's _Steps toward mission's waypoints, made anew for another
    mission."""
    waypoints = mission.tasks + (mission.end,)
    if table.steps is None or table.steps.waypoints != waypoints:
        table.steps = _Steps(g.node_count, waypoints)
    return table.steps


def _grown(array, size):
    """array followed by -1s up to size."""
    return np.concatenate([array, np.full(size - len(array), -1, array.dtype)])


def _unit(words):
    """random() of each of words: its top 53 bits over 2**53."""
    return (words >> 11) * 2.0 ** -53


def _bounded(words, wp, half, has, sel, n):
    """integers(n) for the lanes sel, every n at least 2: Lemire's method
    on one 32-bit draw, the kept half or the low half of the lane's next
    word (keeping its high half).  Returns the draws and where the method
    would reject that draw; wp, half and has advance at sel."""
    w = words[wp[sel]]
    kept = has[sel]
    x = np.where(kept, half[sel], w & _MASK32)
    half[sel] = w >> 32
    wp[sel] += ~kept
    has[sel] = ~kept
    m = x * n
    return (m >> 32).astype(np.intp), m & _MASK32 < (2 ** 32 - n) % n


def outcomes(cfg, seeds):
    """The fields of the EpisodeOutcome of _episode(cfg, _Draws(s)) as a
    tuple for each s of seeds, a numpy uint64 array, in order.

    _march steps the episodes in lockstep; those it hands off finish
    here, on _episode from their start or on _ticks from the start of a
    tick.  When its episodes could bring more than _CELLS cells in one
    loop step, every episode runs alone.
    """
    g, mission = cfg.environment, cfg.mission
    ends = np.zeros((4, len(seeds)), np.intp)
    if g.node_count * (len(mission.tasks) + 1) * len(seeds) <= _CELLS:
        tails = _march(cfg, _pcg64_states(seeds), ends)
    else:
        tails = [(i, None) for i in range(len(seeds))]
    outs = [(why == _WON, _CAUSES.get(why), steps, redirects, node)
            for why, steps, redirects, node in zip(*ends.tolist())]
    rng = _Draws(0)
    table = _human_table(g, cfg.heat)
    for (i, state), start in zip(tails, _pcg64_states(
            seeds[[i for i, _ in tails]])):
        rng.reseed(start)
        if state is None:
            outs[i] = astuple(_episode(cfg, rng))
            continue
        (robot, route, idx, human, steps, redirects, holds, tried, settled,
         unread, half) = state
        rng.resume(_BLOCK, unread, half)
        outs[i] = astuple(_ticks(g, mission, table, rng, route, robot,
                                 table.intern(human), idx, steps, redirects,
                                 holds, tried, settled))
    return outs


def _march(cfg, states, ends):
    """Step in lockstep the episodes of outcomes, whose _pcg64_states
    entries states yields.  ends gets, per episode that ends here, why it
    ended and its steps, redirects and final node; the others are
    returned, as (index, None) to run from their start or as (index,
    state at the start of a tick).

    One loop step advances every live episode by one tick, as numpy
    operations over the human table's columns and its _Steps, with the
    draws _Draws would make.  An episode reads a block of _BLOCK raw
    words of its stream: random() is a word's top 53 bits, and a 32-bit
    draw takes a word's low half and keeps its high half.  A miss in the
    table is filled by the scalar code, a redirect is found per episode,
    and no id is dropped until the loop step ends.  An episode whose
    start draw Lemire's method rejects is handed off at its start; one
    that needs a word past its block, or whose draw is rejected, is
    handed off at the start of its tick.
    """
    g, mission, u = cfg.environment, cfg.mission, cfg.uncertainty
    n, count = g.node_count, ends.shape[1]
    rng = _Draws(0)
    table = _human_table(g, cfg.heat)
    words = np.empty(count * _BLOCK, np.uint64)
    for i, state in enumerate(states):
        rng.reseed(state)
        words[i * _BLOCK:(i + 1) * _BLOCK] = rng._bits.random_raw(_BLOCK)

    lane = np.arange(count)
    wp = lane * _BLOCK
    end = wp + _BLOCK
    half = np.zeros(count, np.uint64)
    has = np.zeros(count, bool)
    fresh = np.zeros(count, bool)
    if mission.start is not None:
        robot = np.full(count, g.check_node(mission.start))
    elif n > 1:
        robot, fresh = _bounded(words, wp, half, has, lane, n)
    else:
        robot = np.zeros(count, np.intp)
    if n > 1:
        pos, rejected = _bounded(words, wp, half, has, lane, n)
        fresh |= rejected
    else:
        pos = np.zeros(count, np.intp)
    tails = [(i, None) for i in np.flatnonzero(fresh).tolist()]
    if fresh.all():
        return tails

    live = ~fresh
    robot, pos = robot[live].tolist(), pos[live].tolist()
    table.pinned = True
    try:
        humans, plans, routes = {}, {}, []
        for p in pos:
            if p not in humans:
                humans[p] = table.intern(_predicted(g, p, None, u))
        for r in robot:
            if r not in plans:
                plans[r] = len(routes)
                routes.append(order_tasks(g, mission, r).ordered_tasks)
        width = len(routes[0]) + 1
        route = np.array([list(r) + [-1] for r in routes]).ravel()
        waypoints = mission.tasks + (mission.end,)
        way = np.array([waypoints.index(t) if t >= 0 else -1
                        for t in route.tolist()])
        # one array per field of the state, one entry per live lane, in
        # the order that arrive and the loop unpack them
        zero = np.zeros(len(robot), np.intp)
        lanes = [lane[live], end[live], wp[live], half[live], has[live],
                 np.array(robot), np.array([plans[r] for r in robot]) * width,
                 zero.copy(), np.array([humans[p] for p in pos]), zero.copy(),
                 zero.copy(), zero.astype(bool), zero.copy(), zero]

        def arrive(tick):
            # the top of _ticks for every lane: advance the route, then
            # record the lanes that won, ended or go scalar, and drop them
            (lane, end, wp, half, has, robot, rbase, idx, hid, redirects,
             holds, tried, settled, code) = lanes
            at = robot == route[rbase + idx]
            while at.any():
                idx += at
                at = robot == route[rbase + idx]
            code[route[rbase + idx] < 0] = _WON
            code[(code == 0) & (end - wp < 3)] = _HANDED_OFF
            live = code == 0
            if live.all():
                return
            done = ~live & (code != _HANDED_OFF)
            ends[0, lane[done]] = code[done]
            ends[1, lane[done]] = tick
            ends[2, lane[done]] = redirects[done]
            ends[3, lane[done]] = robot[done]
            for i in np.flatnonzero(code == _HANDED_OFF).tolist():
                tails.append((int(lane[i]), (
                    int(robot[i]), routes[rbase[i] // width], int(idx[i]),
                    table.rows[hid[i]][0], tick, int(redirects[i]),
                    int(holds[i]), bool(tried[i]), int(settled[i]),
                    words[wp[i]:end[i]].tolist(),
                    int(half[i]) if has[i] else None)))
            lanes[:] = [a[live] for a in lanes]

        tick = 0
        arrive(tick)
        while lanes[0].size:
            if tick >= sim._TICK_GUARD:
                raise RuntimeError("episode exceeded the tick guard")
            hid = lanes[8]
            if table.full():
                ids = table.reintern(set(hid.tolist()))
                hid[:] = [ids[h] for h in hid.tolist()]
            index = _steps(table, g, mission)
            if _full(index.plans):
                index.clear()
            cols = _columns(table, g)
            tick += 1
            (lane, end, wp, half, has, robot, rbase, idx, hid, redirects,
             holds, tried, settled, code) = lanes
            at = rbase + idx
            target, aim = route[at], way[at]

            # the human: table.step
            nh = cols.follow[hid]
            if u > 0.0:
                saved = wp.copy(), half.copy(), has.copy()
                div = _unit(words[wp]) < u
                wp += 1
                deg = cols.deg[hid]
                k = np.zeros(len(hid), np.intp)
                sel = np.flatnonzero(div & (deg > 1))
                k[sel], rejected = _bounded(words, wp, half, has, sel,
                                            deg[sel].astype(np.uint64))
                if rejected.any():
                    # start the tick again without the rejected lanes
                    wp[:], half[:], has[:] = saved
                    code[sel[rejected]] = _HANDED_OFF
                    tick -= 1
                    arrive(tick)
                    continue
                nh = np.where(div, np.where(deg > 0, cols.divs[
                    cols.first[hid] + k], hid), nh)
            miss = np.flatnonzero(nh < 0)
            if miss.size:
                was, ks = hid[miss], (np.where(div[miss], k[miss], -1)
                                      if u > 0.0 else np.full(miss.size, -1))
                cols.fill_successors(table, g, dict.fromkeys(
                    zip(was.tolist(), ks.tolist())))
                cols = _columns(table, g)
                nh[miss] = np.where(ks < 0, cols.follow[was],
                                    cols.divs[cols.first[was] + ks])
            hid[:] = nh
            goal = cols.goal[hid]
            settled[:] = np.where(cols.pos[hid] == goal, settled + 1, 0)
            heat = cols.heat[hid]
            miss = np.flatnonzero(heat < 0)
            if miss.size:
                cols.fill_heats(table, g, set(hid[miss].tolist()))
                heat[miss] = cols.heat[hid[miss]]

            # the step toward the objective
            cell = index.cells_of(heat, robot, aim, len(table.heats))
            sn = index.cells[cell]
            miss = np.flatnonzero(sn < 0)
            if miss.size:
                for c, h, r, t in zip(*(a.tolist() for a in (
                        cell[miss], hid[miss], robot[miss], target[miss]))):
                    index.number(g, c, table.rows[h][3], r, t)
                sn = index.cells[cell]
            nxt, ps, psr, eff = (a[sn] for a in index.columns())

            # hold, and perhaps ask the human to move
            hold = eff < mission.threshold
            holds += hold
            ask = np.flatnonzero(hold & (holds >= REDIRECT_PATIENCE) & ~tried
                                 & ((goal < 0) | (settled >= 2)))
            for i, h, r, x, j in zip(*(a.tolist() for a in (
                    ask, hid[ask], robot[ask], nxt[ask], sn[ask]))):
                human = table.rows[h][0]
                if r in human.predicted_path or x in human.predicted_path:
                    leg = _redirect_target(g, mission, human.position,
                                           index.plans[j][0])
                    if leg is not None:
                        hid[i] = table.intern(HumanState(
                            human.position, leg.nodes[-1], human.uncertainty,
                            leg.nodes))
                        redirects[i] += 1
                    tried[i] = True
            code[hold & (holds >= mission.hold_limit)] = _TIMED_OUT

            # or try the edge: moving clears the holds, failing ends
            move = ~hold
            draw = _unit(words[wp])
            wp += move
            ok = move & (draw < ps)
            robot[ok] = nxt[ok]
            holds[ok] = 0
            tried[ok] = False
            code[move & (draw >= psr)] = _CRASHED
            arrive(tick)
    finally:
        table.pinned = False
    return tails


_CAUSES = {_WON: None, _TIMED_OUT: HOLD_TIMEOUT, _CRASHED: CATASTROPHIC}
