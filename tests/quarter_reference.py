"""pi/4 angles for the tests: the eight pi/4 directions and k * pi/4 as an
`Angle`, built by a divmod of k, apart from the package's own table
(`angles.angle_of_quarters`), so each can check the other."""

from toruscut import Angle, Direction

# the directions at 0, 1, ..., 7 quarter turns
EIGHTHS = tuple(
    Direction(x, y)
    for x, y in ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
)


def quarter_angle(k: int) -> Angle:
    """k * pi/4 as an Angle."""
    c, r = divmod(k, 8)
    return Angle(EIGHTHS[r], c + (r > 4))
