from iterlearn.presets import reference_seeds


def test_reference_seeds_pinned():
    # the benchmark chooses its draws through this amplification screen,
    # so a change to the closed-loop builder must not move them
    assert reference_seeds(12, start=0, horizon=20) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12]
    assert reference_seeds(12, start=0, horizon=100) == [0, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13]
