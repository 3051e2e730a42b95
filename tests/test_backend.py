from voltage_tower.backend import bareiss_determinant


def test_kernels_do_not_mutate_input():
    rows = [[1, 2], [3, 4]]
    snapshot = [r[:] for r in rows]
    bareiss_determinant(rows)
    assert rows == snapshot


def test_big_integer_entries_stay_exact():
    rows = [
        [10**40, 1, 0],
        [0, -(10**35), 2],
        [3, 0, 10**30],
    ]
    expected = (
        10**40 * (-(10**35)) * 10**30
        + 1 * 2 * 3
        - 0
        - 0
        - 0
        - 0
    )
    assert bareiss_determinant(rows) == expected
