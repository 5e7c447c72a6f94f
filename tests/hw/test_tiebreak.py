"""Deterministic tie-breaking in optimize_fused (ISSUE satellite).

A 4-in/4-out-channel conv offers several (Tm, Tn) shapes with identical
cycles and identical DSP cost — (1, 2) and (2, 1), for instance. The
optimizer must resolve such ties deterministically: prefer the lower-DSP
config, then the lexicographically smallest (Tm, Tn), never the
enumeration order of an internal dict or candidate list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pyramid import build_pyramid
from repro.errors import ConfigError
from repro.hw.device import DSP_PER_MAC
from repro.hw.fused_accel import (_divisor_like, _fresh_tiles, module_cycles,
                                  optimize_fused)
from repro.nn.layers import ConvSpec, PoolSpec
from repro.nn.network import Network
from repro.nn.shapes import TensorShape
from repro.nn.stages import extract_levels


def square_conv_level(channels=4, extent=8):
    net = Network("tie", TensorShape(channels, extent, extent),
                  [ConvSpec(name="c", kernel=3, stride=1,
                            out_channels=channels, padding=1)])
    return extract_levels(net)[0]


class TestTieBreak:
    def test_equal_cycle_equal_dsp_tie_prefers_lexicographic(self):
        level = square_conv_level()
        # lane budget (63 - 16*3) // 5 = 3: (1,2) and (2,1) both give
        # ceil(4/1)*ceil(4/2) = ceil(4/2)*ceil(4/1) = 8 channel rounds
        # at the same 10-DSP cost; (1,3)/(3,1) tie on cycles but cost
        # 15 DSPs, so cheapest-DSP eliminates them first.
        design = optimize_fused([level], dsp_budget=63)
        module = design.modules[0]
        assert (module.tm, module.tn) == (1, 2)

    def test_tie_landscape_is_as_assumed(self):
        """Guard the fixture itself: the shapes really do tie."""
        level = square_conv_level()
        c12 = module_cycles(level, 1, 2, 8, 8)
        c21 = module_cycles(level, 2, 1, 8, 8)
        c13 = module_cycles(level, 1, 3, 8, 8)
        assert c12 == c21 == c13

    def test_repeated_runs_identical(self):
        level = square_conv_level()
        picks = {
            tuple((m.tm, m.tn) for m in
                  optimize_fused([level], dsp_budget=63).modules)
            for _ in range(5)
        }
        assert len(picks) == 1

    def test_multi_level_design_is_deterministic(self):
        net = Network("tie2", TensorShape(4, 16, 16), [
            ConvSpec(name="c1", kernel=3, stride=1, out_channels=4,
                     padding=1),
            ConvSpec(name="c2", kernel=3, stride=1, out_channels=4,
                     padding=1),
        ])
        levels = extract_levels(net)
        shapes = {
            tuple((m.tm, m.tn) for m in
                  optimize_fused(levels, dsp_budget=150).modules)
            for _ in range(5)
        }
        assert len(shapes) == 1
        # every equal-dsp module tie resolved toward the smaller tm
        for tm, tn in next(iter(shapes)):
            assert (tm, tn) <= (tn, tm)


def brute_force_pick(levels, dsp_budget):
    """``optimize_fused``'s choice by exhaustive scan, with no pruning and
    no bisection: for every target latency each conv module takes, among
    all its (Tm, Tn) options within the target, the cheapest in DSPs (then
    the fastest, then the smallest (Tm, Tn), the order the pruned list
    keeps). Returns the winning key (slowest, imbalance, lanes, shapes),
    or None when no target fits the budget."""
    fresh = _fresh_tiles(levels, build_pyramid(levels))
    lane_budget = (dsp_budget - 16 * (len(levels) + 2)) // DSP_PER_MAC
    modules = [
        [(module_cycles(level, tm, tn, *fresh[i]), tm, tn)
         for tm in _divisor_like(level.out_channels // level.groups, lane_budget)
         for tn in _divisor_like(level.in_channels // level.groups,
                                 lane_budget // max(tm, 1))]
        for i, level in enumerate(levels) if level.is_conv]
    best = None
    for target in sorted({o[0] for options in modules for o in options}):
        usable = [[o for o in options if o[0] <= target] for options in modules]
        if not all(usable):
            continue
        picks = [min(u, key=lambda o: (o[1] * o[2], o[0], o[1], o[2]))
                 for u in usable]
        lanes = sum(tm * tn for _, tm, tn in picks)
        cycles = [c for c, _, _ in picks]
        key = (max(cycles), max(cycles) - min(cycles), lanes,
               tuple((tm, tn) for _, tm, tn in picks))
        if lanes <= lane_budget and (best is None or key < best):
            best = key
    return best


@st.composite
def conv_group(draw):
    """One to three 3x3 convs (some grouped), each optionally pooled,
    over channel counts with many divisors."""
    in_channels = channels = draw(st.sampled_from([1, 3, 4, 6, 12, 16, 24]))
    specs = []
    for i in range(draw(st.integers(1, 3))):
        out = draw(st.sampled_from([2, 4, 6, 8, 12, 16, 24, 32]))
        groups = 2 if channels % 2 == 0 and draw(st.booleans()) else 1
        specs.append(ConvSpec(f"c{i}", kernel=3, stride=1, out_channels=out,
                              padding=1, groups=groups))
        channels = out
        if draw(st.booleans()):
            specs.append(PoolSpec(f"p{i}", kernel=2, stride=2))
    return extract_levels(Network("rand", TensorShape(in_channels, 16, 16),
                                  specs))


class TestBisectedPick:
    """Each module's pick is bisected out of its pruned option list; it
    must be the design an exhaustive scan of every option chooses."""

    @given(levels=conv_group(), dsp_budget=st.integers(60, 2400))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_scan(self, levels, dsp_budget):
        expected = brute_force_pick(levels, dsp_budget)
        if expected is None:
            with pytest.raises(ConfigError):
                optimize_fused(levels, dsp_budget=dsp_budget)
            return
        modules = optimize_fused(levels, dsp_budget=dsp_budget).modules
        cycles = [m.cycles for m in modules]
        assert (max(cycles), max(cycles) - min(cycles),
                sum(m.tm * m.tn for m in modules),
                tuple((m.tm, m.tn) for m in modules)) == expected
