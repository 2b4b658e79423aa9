import os

# BLAS on one thread, as the CI jobs run it: the suite's small dense solves only pay for more
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from fepkit.matkit import TolerancePolicy
from fepkit.models import MODEL_IDS, model_from_id

# parameters off the trivial defaults: epsilon switched on, phi != psi
CATALOG_PARAMS = {
    "lieb:nh-symmetric": {"eps": 0.8},
    "lieb:minimal-fep": {"eps": 1.3},
    "lieb:reciprocal": {"phi": 0.7, "psi": 2.1},
    "hodsm:nh1": {"eps": 0.6},
    "hodsm:nh2": {"eps": 0.3},
    "hodsm:nh3": {"eps": -0.5},
    "hodsm:nh4": {"eps": 0.35},
}


@pytest.fixture
def policy():
    return TolerancePolicy()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=MODEL_IDS)
def catalog_model(request):
    """Every catalog model, with its non-Hermitian parameters switched on."""
    return model_from_id(request.param, **CATALOG_PARAMS.get(request.param, {}))
