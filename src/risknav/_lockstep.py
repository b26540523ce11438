"""The lockstep engine of a sweep: a job's episodes, of any of its
levels, stepped together with exactly the draws of the scalar loop.

This is event-based Monte Carlo (Brown and Martin, Progress in Nuclear
Energy, 1984): one loop step advances every live episode of the job by
one tick, each at its own level's uncertainty, as numpy gathers from the
stdlib-array columns of the mission's human table, of its states and of
its numbered steps, the same columns that the scalar loop reads, through
views that live for one gather.  Each episode still reads
its own PCG64 stream (O'Neill, 2014), so outcomes are those of sim._ticks,
which stays the reference engine and finishes what this one hands off;
the job's per-episode work outside the loop is array work too: the
streams' states, their first blocks of raw words (a 128-bit LCG step and
its XSL-RR output over all the episodes at once), the start humans and
routes per distinct start, and the outcomes, returned as arrays.  The
table is emptied by its own rule, full, at the top of a loop step, as at
the top of a scalar tick.
"""

from __future__ import annotations

import numpy as np

from . import human, sim
from .human import _human_table, _predicted
from .planner import order_tasks
from .sim import (_MASK32, _NOT_ASKED, CATASTROPHIC, HOLD_TIMEOUT,
                  REDIRECT_PATIENCE, _ask, _Draws, _episode, _pcg64_states,
                  _pcg64_words, _ticks)

# A lockstep episode reads this many raw words of its stream, at most 3 a
# tick, and goes on on the scalar loop when it needs more.
_BLOCK = 96
# Why a lockstep episode leaves its batch.
_WON, _TIMED_OUT, _CRASHED, _HANDED_OFF = 1, 2, 3, 4


def _at(column, index):
    """column[index] for a stdlib-array column of a human table and a
    numpy index array.  The numpy view of the column is dropped before
    this returns, since an array exporting its buffer cannot grow, and
    the table's columns grow at every intern and step plan."""
    return np.frombuffer(column, column.typecode)[index]


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


def outcomes(levels, level, seeds):
    """The EpisodeOutcome of _episode(levels[l], _Draws(s)) for each l of
    level and s of seeds, numpy arrays of level indices and of uint64
    seeds, as the rows of an intp array, one column per episode: why it
    ended (_WON, _TIMED_OUT or _CRASHED; _CAUSES maps them to the failure
    cause), its steps, its redirects and its final robot node.  levels
    are EpisodeConfigs that differ at most in their uncertainty.

    The episodes' PCG64 states are made in one _pcg64_states pass, and
    _march steps the episodes in lockstep; those it hands off finish here,
    from the same states, on _episode from their start or on _ticks from
    the start of a tick.  When there are more episodes than human._lanes
    allows, every episode runs alone.
    """
    g, mission = levels[0].environment, levels[0].mission
    ends = np.zeros((4, len(seeds)), np.intp)
    states = _pcg64_states(seeds)
    if len(seeds) <= human._lanes(g, mission):
        tails = _march(levels, level, states, ends)
    else:
        tails = [(i, None) for i in range(len(seeds))]
    rng = _Draws(0)
    table = _human_table(g, levels[0].heat, mission)
    for i, state in tails:
        rng.reseed(states, i)
        if state is None:
            out = _episode(levels[level[i]], rng)
        else:
            (robot, route, idx, h, steps, redirects, holds, tried, settled,
             unread, half) = state
            rng.resume(_BLOCK, unread, half)
            out = _ticks(g, mission, table, rng, route, robot,
                         table.intern(g, h), idx, steps, redirects, holds,
                         tried, settled)
        ends[:, i] = (_WHY[out.failure_cause], out.steps, out.redirects,
                      out.final_robot_node)
    return ends


def _march(levels, level, states, ends):
    """Step in lockstep the episodes of outcomes, at levels[l] for each l
    of level, whose PCG64 states are the _pcg64_states arrays states.
    ends gets, per episode that ends here, why it ended and its steps,
    redirects and final node; the others are returned, as (index, None) to
    run from their start or as (index, state at the start of a tick).

    One loop step advances every live episode by one tick, as numpy
    gathers from the human table's columns, of states and of steps, with
    the draws _Draws would make; an episode at uncertainty 0 draws nothing
    for its human.  An episode reads a block of _BLOCK raw words of its
    stream: random() is a word's top 53 bits, and a 32-bit draw takes a
    word's low half and keeps its high half.  A miss in the table is
    filled by the scalar code and a redirect is asked per episode; a full
    table is emptied at the top of a loop step.  The blocks come from one
    _pcg64_words pass over all the episodes, and the start humans and
    routes are made once per distinct (start node, level) and robot start.
    An episode whose start draw Lemire's method rejects is handed off at
    its start; one that needs a word past its block, or whose draw is
    rejected, is handed off at the start of its tick.
    """
    g, mission = levels[0].environment, levels[0].mission
    n, count = g.node_count, ends.shape[1]
    table = _human_table(g, levels[0].heat, mission)
    words = _pcg64_words(states, _BLOCK).ravel()

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
    us = [cfg.uncertainty for cfg in levels]
    level, robot = level[live], robot[live]
    keys, hid = np.unique(pos[live] * len(us) + level, return_inverse=True)
    starts = [divmod(key, len(us)) for key in keys.tolist()]
    hid = np.array([table.intern(g, _predicted(g, p, None, us[i]))
                    for p, i in starts])[hid]
    starts, rbase = np.unique(robot, return_inverse=True)
    routes = [order_tasks(g, mission, r).ordered_tasks
              for r in starts.tolist()]
    width = len(routes[0]) + 1
    route = np.array([list(r) + [-1] for r in routes]).ravel()
    way = np.array([table.waypoints.index(t) if t >= 0 else -1
                    for t in route.tolist()])
    # one array per field of the state, one entry per live lane, in the
    # order that arrive and the loop unpack them
    zero = np.zeros(len(robot), np.intp)
    lanes = [lane[live], end[live], wp[live], half[live], has[live], robot,
             rbase * width, zero.copy(), hid, zero.copy(), zero.copy(),
             zero.astype(bool), zero.copy(), np.array(us)[level], zero]

    def arrive(tick):
        # the top of _ticks for every lane: advance the route, then record
        # the lanes that won, ended or go scalar, and drop them
        (lane, end, wp, half, has, robot, rbase, idx, hid, redirects,
         holds, tried, settled, u, code) = lanes
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
                table.states[hid[i]], tick, int(redirects[i]),
                int(holds[i]), bool(tried[i]), int(settled[i]),
                words[wp[i]:end[i]].tolist(),
                int(half[i]) if has[i] else None)))
        lanes[:] = [a[live] for a in lanes]

    tick = 0
    arrive(tick)
    while lanes[0].size:
        if tick >= sim._TICK_GUARD:
            raise RuntimeError("episode exceeded the tick guard")
        if table.full():
            hid = lanes[8]
            ids = table.reintern(g, set(hid.tolist()))
            hid[:] = [ids[h] for h in hid.tolist()]
        tick += 1
        (lane, end, wp, half, has, robot, rbase, idx, hid, redirects,
         holds, tried, settled, u, code) = lanes
        aim = way[rbase + idx]

        # the human: table.step, where random() is never below u = 0
        nh = _at(table.follow_ids, hid)
        saved = wp.copy(), half.copy(), has.copy()
        draws = u > 0.0
        div = _unit(words[wp]) < u
        wp += draws
        deg = _at(table.deg, hid)
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
        nh = np.where(div, np.where(deg > 0, _at(
            table.divs, _at(table.first, hid) + k), hid), nh)
        miss = np.flatnonzero(nh < 0)
        if miss.size:
            ks = np.where(div[miss], k[miss], -1)
            nh[miss] = [table.follow(g, h) if j < 0 else table.diverge(g, h, j)
                        for h, j in zip(hid[miss].tolist(), ks.tolist())]
        hid[:] = nh
        goal = _at(table.goal, hid)
        settled[:] = np.where(_at(table.pos, hid) == goal, settled + 1, 0)
        heat = _at(table.heat_ids, hid)
        miss = np.flatnonzero(heat < 0)
        if miss.size:
            heat[miss] = [table.heat(g, h) for h in hid[miss].tolist()]

        # the step toward the objective
        sn = _at(table.cells, heat * table.width
                 + robot * len(table.waypoints) + aim)
        miss = np.flatnonzero(sn < 0)
        if miss.size:
            sn[miss] = [table.plan(g, *cell) for cell in zip(*(
                a.tolist() for a in (heat[miss], robot[miss], aim[miss])))]
        nxt, ps, psr, eff = (_at(a, sn) for a in (table.nxt, table.ps,
                                                  table.psr, table.eff))

        # hold, and perhaps ask the human to move
        hold = eff < mission.threshold
        holds += hold
        ask = np.flatnonzero(hold & (holds >= REDIRECT_PATIENCE) & ~tried
                             & ((goal < 0) | (settled >= 2)))
        for i, h, j in zip(*(a.tolist() for a in (ask, hid[ask], sn[ask]))):
            asked = _ask(g, mission, table, h, j)
            if asked >= 0:
                hid[i] = asked
                redirects[i] += 1
            tried[i] = asked != _NOT_ASKED
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
    return tails


_CAUSES = {_WON: None, _TIMED_OUT: HOLD_TIMEOUT, _CRASHED: CATASTROPHIC}
_WHY = {cause: why for why, cause in _CAUSES.items()}
