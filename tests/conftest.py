import numpy as np
import pytest

from sqvi.problems import SyntheticGame, make_regression_game, make_translated_box_qvi


@pytest.fixture(scope="session")
def box_problem():
    return make_translated_box_qvi(n=20, seed=7)


@pytest.fixture(scope="session")
def noisy_box_problem():
    return make_translated_box_qvi(n=20, seed=7, noise_level=0.5)


@pytest.fixture(scope="session")
def game_problem():
    return make_regression_game(SyntheticGame(), sigma=1e-2)


@pytest.fixture(scope="session")
def training_minimizer_projector(game_problem):
    """Projection onto the game's training-minimizer set {A_tr y = b_tr}.

    Each player's block of A_tr has full column rank, so this set is the
    fixed-point set of the exact, unregularized argmin map; growth measured
    against it is growth relative to that map, not to the sigma-surrogate a
    run solves. The affine projection must already lie in the balls, so no
    alternating projection is needed: every projected probe is checked.
    """
    data = game_problem.lower_level.game
    a_tr, b_tr = data.train_matrix, data.train_rhs
    pinv_tr = np.linalg.pinv(a_tr)

    def project(z):
        y = z - pinv_tr @ (a_tr @ z - b_tr)
        assert game_problem.ambient.contains(y, 1e-9), "projected probe leaves the balls"
        return y

    return project


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
