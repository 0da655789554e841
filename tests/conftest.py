import hypothesis
import pytest

# "ci" replays one fixed example set, so tier-1 is reproducible; "explore"
# draws fresh examples on every run and is chosen with
# --hypothesis-profile=explore, which overrides the load below.
hypothesis.settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.register_profile(
    "explore",
    derandomize=False,
    database=None,
    deadline=None,
    max_examples=300,
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def counted_int():
    """(Counted, products): an int subclass whose products count.

    Every __mul__ or __rmul__ of a Counted appends its other factor to
    products and returns a Counted.  Given to staircase._axis as its form's
    u0, which every test of the walk multiplies exactly once, it counts
    the tests the walk makes.
    """
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(other)
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

    return Counted, products
