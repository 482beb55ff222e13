"""Time grid construction: node invariants, refinement, validation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgesim as bs
from bridgesim.errors import InvalidConfigurationError, InvalidObservationError


def one_obs(time=1.0, value=1.0, window=None):
    ob = bs.Observation(time=time, matrix=[[1.0]], value=[value],
                        window=window)
    return bs.validate(bs.ObservationSet((ob,)), dim=1)


def check_invariants(grid, obs, dt_base, dt_min, ratio):
    nodes = grid.nodes
    assert nodes[0] == 0.0
    assert np.all(np.diff(nodes) > 0)
    steps = np.diff(nodes)
    assert steps.max() <= dt_base * (1.0 + 1e-9)
    for k, ob in enumerate(obs.items):
        j1 = grid.index_of(ob.time)
        j0 = grid.index_of(ob.time - ob.window)
        assert nodes[j1] == ob.time
        assert abs(nodes[j0] - (ob.time - ob.window)) <= 1e-12
        for j in range(j0, j1):
            bound = max(ratio * (ob.time - nodes[j]), dt_min)
            assert steps[j] <= min(dt_base, bound) * (1.0 + 1e-9)
        # the step into the observation time has collapsed to dt_min
        assert steps[j1 - 1] <= dt_min * (1.0 + 1e-9)


class TestUniform:
    def test_no_observations(self):
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.1)
        assert np.allclose(grid.nodes, np.linspace(0.0, 1.0, 11))
        assert grid.n_steps == 10
        assert grid.horizon == 1.0

    def test_partial_last_step(self):
        grid = bs.build_grid(0.25, None, dt_base=0.1, dt_min=0.01)
        assert np.allclose(grid.nodes, [0.0, 0.1, 0.2, 0.25])

    def test_include_times_become_nodes(self):
        grid = bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01,
                             include_times=[0.333, 0.85])
        assert grid.index_of(0.333) >= 0
        assert grid.index_of(0.85) >= 0


class TestRefined:
    def test_window_invariants_default_window(self):
        obs = one_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4)
        check_invariants(grid, obs, 0.01, 1e-4, 0.5)

    def test_window_invariants_short_window(self):
        obs = one_obs(window=0.25)
        grid = bs.build_grid(1.0, obs, dt_base=0.05, dt_min=1e-3,
                             refine_ratio=0.3)
        check_invariants(grid, obs, 0.05, 1e-3, 0.3)
        # outside the window the grid is uniform in dt_base
        j0 = grid.index_of(1.0 - 0.25)
        outside = np.diff(grid.nodes[:j0 + 1])
        assert np.allclose(outside, 0.05)

    def test_two_observations(self):
        obs = bs.validate(bs.ObservationSet((
            bs.Observation(0.5, [[1.0, 0.0]], [0.3]),
            bs.Observation(1.0, [[0.0, 1.0]], [-0.2]),
        )), dim=2)
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4)
        check_invariants(grid, obs, 0.01, 1e-4, 0.5)
        assert grid.nodes[grid.index_of(0.5)] == 0.5
        assert grid.nodes[grid.index_of(1.0)] == 1.0
        # the second window opens exactly at the first observation time
        second = obs.items[1]
        assert grid.nodes[grid.index_of(second.time - second.window)] == 0.5

    def test_horizon_past_last_observation(self):
        obs = one_obs(time=0.5)
        grid = bs.build_grid(2.0, obs, dt_base=0.1, dt_min=1e-3)
        check_invariants(grid, obs, 0.1, 1e-3, 0.5)
        assert grid.horizon == 2.0
        j1 = grid.index_of(0.5)
        after = np.diff(grid.nodes[j1:])
        assert np.allclose(after, 0.1)

    def test_include_time_inside_window(self):
        obs = one_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                             include_times=[0.9, 0.975])
        check_invariants(grid, obs, 0.01, 1e-4, 0.5)
        grid.index_of(0.9)
        grid.index_of(0.975)

    def test_nearby_include_time_snaps_to_observation(self):
        obs = one_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.1, dt_min=1e-3,
                             include_times=[1.0 - 1e-15])
        assert grid.nodes[grid.index_of(1.0)] == 1.0
        assert np.count_nonzero(np.abs(grid.nodes - 1.0) < 1e-6) == 1

    def test_index_of(self):
        obs = one_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4)
        assert grid.index_of(0.0) == 0
        assert grid.index_of(1.0) == grid.n_steps
        for time in (0.123456, np.nan):
            with pytest.raises(InvalidConfigurationError):
                grid.index_of(time)

    def test_index_of_picks_the_nearest_node(self):
        """Nodes 5e-10 apart, both within index_of's tolerance of either
        time, each map to themselves."""
        obs = one_obs()
        grid = bs.build_grid(1.0, obs, dt_base=0.01, dt_min=1e-4,
                             include_times=[1.0 - 5e-10, 0.5, 0.5 + 5e-10])
        for time in (1.0 - 5e-10, 1.0, 0.5, 0.5 + 5e-10):
            assert grid.nodes[grid.index_of(time)] == time
        assert grid.index_of(1.0) == grid.n_steps

    def test_window_opening_keeps_its_exact_time(self):
        """An include time 3e-9 before a window opening merges into it at
        horizon 5000 (tolerance 5e-9): the node keeps the opening's exact
        time, not the include time's, and the run goes through."""
        obs = bs.validate([bs.Observation(5000.0, [[1.0]], [0.4],
                                          window=1000.0)], dim=1)
        grid = bs.build_grid(5000.0, obs, dt_base=100.0, dt_min=1.0,
                             include_times=[4000.0 - 3e-9])
        assert grid.nodes[grid.index_of(4000.0)] == 4000.0
        ens = bs.run_ensemble(bs.brownian(dim=1, sigma=0.01).spec, obs,
                              grid, np.zeros(1), 20, seed=1)
        assert ens.size == 20
        assert (ens.state_at(5000.0) == 0.4).all()

    @pytest.mark.parametrize("window", [2000.0 * (1.0 + 1e-12),
                                        2000.0 - 3e-9])
    def test_window_opening_merged_into_an_observation(self, window):
        """At horizon 6000 build_grid merges anchors within 6e-9: an
        opening 2e-9 before or 3e-9 after the previous observation
        shares its node, index_of finds that node from the opening's
        time, and the run goes through."""
        obs = bs.validate([
            bs.Observation(4000.0, [[1.0]], [0.1]),
            bs.Observation(6000.0, [[1.0]], [0.4], window=window)], dim=1)
        grid = bs.build_grid(6000.0, obs, dt_base=200.0, dt_min=1.0)
        assert grid.nodes[grid.index_of(6000.0 - window)] == 4000.0
        ens = bs.run_ensemble(bs.brownian(dim=1, sigma=0.01).spec, obs,
                              grid, np.zeros(1), 20, seed=1)
        assert np.abs(ens.state_at(4000.0) - 0.1).max() <= 1e-12
        assert np.abs(ens.state_at(6000.0) - 0.4).max() <= 1e-12


class TestValidation:
    @pytest.mark.parametrize("kwargs,field", [
        ({"horizon": 0.0}, "horizon"),
        ({"horizon": 0.5}, "horizon"),
        ({"dt_min": 0.2}, "dt_min"),
        ({"dt_min": 0.0}, "dt_min"),
        ({"dt_min": 0.05}, "dt_min"),    # not below the 0.05 window
        ({"refine_ratio": 1.0}, "refine_ratio"),
    ])
    def test_errors_name_their_argument(self, kwargs, field):
        args = dict(horizon=1.0, obs=one_obs(window=0.05), dt_base=0.1,
                    dt_min=0.01, refine_ratio=0.5)
        args.update(kwargs)
        with pytest.raises(InvalidConfigurationError) as e:
            bs.build_grid(**args)
        assert e.value.field == field

    def test_bad_horizon(self):
        # an infinite horizon would give a one-node grid
        for horizon in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InvalidConfigurationError, match="horizon"):
                bs.build_grid(horizon, None, dt_base=0.1, dt_min=0.01)

    def test_bad_steps(self):
        for dt_base, dt_min in ((0.1, 0.2), (0.1, 0.0), (np.inf, 0.01),
                                (np.inf, np.inf), (0.1, np.nan),
                                (np.nan, 0.01)):
            with pytest.raises(InvalidConfigurationError, match="dt_min"):
                bs.build_grid(1.0, None, dt_base=dt_base, dt_min=dt_min)

    def test_bad_ratio(self):
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01,
                          refine_ratio=1.0)
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01,
                          refine_ratio=0.0)

    def test_unvalidated_observations_rejected(self):
        """No set reaches the grid unchecked: a window past the gap is
        rejected when the set is built."""
        with pytest.raises(InvalidObservationError) as e:
            bs.ObservationSet((bs.Observation(1.0, [[1.0]], [1.0],
                                              window=1.5),))
        assert e.value.field == "window"

    def test_horizon_below_last_observation(self):
        obs = one_obs(time=1.0)
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(0.5, obs, dt_base=0.01, dt_min=1e-4)

    def test_dt_min_must_undershoot_windows(self):
        obs = one_obs(window=0.05)
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(1.0, obs, dt_base=0.1, dt_min=0.05)

    def test_include_time_outside_range(self):
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01,
                          include_times=[1.5])
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01,
                          include_times=[-0.2])
        with pytest.raises(InvalidConfigurationError):
            bs.build_grid(1.0, None, dt_base=0.1, dt_min=0.01,
                          include_times=[np.nan])


class TestTimeGrid:
    """The type owns the grid rule, for every grid and not only those of
    ``build_grid``."""

    @pytest.mark.parametrize("nodes", [
        [0.0, 0.5, 0.3, 1.0],
        [0.0, 0.5, 0.5, 1.0],
        [0.0, np.nan, 1.0],
        [np.nan],
        [0.0, 1.0, np.inf],
        [-np.inf, 0.0],
        [[0.0, 0.5], [0.6, 1.0]],
    ], ids=["unsorted", "repeated", "nan", "only-nan", "inf", "minus-inf",
            "2-d"])
    def test_bad_nodes_rejected(self, nodes):
        with pytest.raises(InvalidConfigurationError,
                           match="nodes must be finite, increasing"):
            bs.TimeGrid(nodes)

    def test_nodes_are_a_float_copy(self):
        """A hand-built grid, such as ``test_bridge``'s, keeps its nodes'
        bytes in a 1-D float array of its own."""
        given = np.sort(np.append(np.linspace(0.0, 1.0, 41), 0.5 - 1e-13))
        grid = bs.TimeGrid(given)
        assert grid.nodes.tobytes() == given.tobytes()
        given[0] = -1.0
        assert grid.nodes[0] == 0.0
        ints = bs.TimeGrid([0, 1, 3])
        assert ints.nodes.dtype == float and ints.nodes.ndim == 1
        assert ints.nodes.tolist() == [0.0, 1.0, 3.0]


@st.composite
def grid_inputs(draw):
    """Validated observations with windows inside their gaps, plus step
    sizes, refinement ratio, horizon and extra include times."""
    unit = st.floats(0.0, 1.0)
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    items, time = [], 0.0
    for gap in gaps:
        time += gap
        window = gap * (0.05 + 0.95 * draw(unit))
        items.append(bs.Observation(time, [[1.0]], [0.0], window=window))
    obs = bs.validate(items, dim=1)
    dt_base = draw(st.floats(0.01, 0.5))
    dt_min = min(dt_base, obs.min_window) * draw(st.floats(0.001, 0.9))
    ratio = draw(st.floats(0.1, 0.9))
    horizon = time + draw(st.floats(0.0, 0.5))
    include = [horizon * x for x in draw(st.lists(unit, max_size=3))]
    return obs, dt_base, dt_min, ratio, horizon, include


class TestGridProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_inputs())
    def test_invariants(self, inputs):
        obs, dt_base, dt_min, ratio, horizon, include = inputs
        grid = bs.build_grid(horizon, obs, dt_base, dt_min, ratio,
                             include_times=include)
        nodes = grid.nodes
        steps = np.diff(nodes)
        assert np.all(steps > 0)
        assert steps.max() <= dt_base * (1.0 + 1e-9)
        for k, ob in enumerate(obs.items):
            j1 = grid.index_of(ob.time)
            assert nodes[j1] == ob.time
            assert abs(nodes[grid.index_of(ob.time - ob.window)]
                       - (ob.time - ob.window)) <= 1e-12
            assert steps[j1 - 1] <= dt_min * (1.0 + 1e-9)
