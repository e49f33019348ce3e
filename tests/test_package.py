import burnkit


def test_every_exported_name_resolves():
    missing = [name for name in burnkit.__all__ if not hasattr(burnkit, name)]
    assert missing == []


def test_solver_and_distances_exported():
    assert "burning_number_exact" in burnkit.__all__
    assert "distance_matrix" in burnkit.__all__
    assert "distance_rows" in burnkit.__all__
    g = burnkit.build("cycle:5")
    assert burnkit.burning_number_exact(g).value == 3
    assert burnkit.distance_matrix(g)[0][2] == 2
    assert burnkit.distance_rows(g, [2]) == [burnkit.distance_matrix(g)[2]]
