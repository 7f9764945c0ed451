import pytest

import strategia as sg


@pytest.fixture(scope="session")
def spec88():
    return sg.BoardSpec.standard()


@pytest.fixture(scope="session")
def kqk4():
    return sg.solve(sg.MaterialClass.from_string("KQvK", sg.BoardSpec(4, 4)))


@pytest.fixture(scope="session")
def kpk4():
    return sg.solve(sg.MaterialClass.from_string("KPvK", sg.BoardSpec(4, 4)))


@pytest.fixture(scope="session")
def krk5():
    return sg.solve(sg.MaterialClass.from_string("KRvK", sg.BoardSpec(5, 5)))


@pytest.fixture(scope="session")
def kqkr34():
    # Both sides hold decisive positions in this class: winner flips exist.
    return sg.solve(sg.MaterialClass.from_string("KQvKR", sg.BoardSpec(3, 4)))


@pytest.fixture(scope="session")
def krk8():
    return sg.solve(sg.MaterialClass.from_string("KRvK", sg.BoardSpec.standard()))


@pytest.fixture(scope="session")
def kqk8():
    return sg.solve(sg.MaterialClass.from_string("KQvK", sg.BoardSpec.standard()))


@pytest.fixture(scope="session")
def kpk6():
    return sg.solve(sg.MaterialClass.from_string("KPvK", sg.BoardSpec(6, 6)))


@pytest.fixture(scope="session")
def kqkr6():
    return sg.solve(sg.MaterialClass.from_string("KQvKR", sg.BoardSpec(6, 6)))


@pytest.fixture(scope="session")
def krk8_file(tmp_path_factory, krk8):
    path = tmp_path_factory.mktemp("tables") / "krk8.ctb"
    krk8.save(path)
    return path
