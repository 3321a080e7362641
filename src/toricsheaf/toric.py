"""Fans, rays and class-group bookkeeping for the supported toric varieties.

Three families are supported, with a fixed ray ordering:

* projective space P^n: rays (rho0, rho1, ..., rhon) where rho0 = -e1-...-en
  and rhoi = ei; the class group is Z and every ray has degree 1.
* the split projective bundle V_s(a1,...,ar) over P^s, of dimension s+r,
  with rays (rho0, ..., rhos, eta0, ..., etar) where
  rho0 = -e1-...-es + a1 f1 + ... + ar fr, rhoi = ei, eta0 = -f1-...-fr,
  etaj = fj; the class group is Z^2 with basis ([D_rho0], [D_eta0]).
* the Hirzebruch surface H_a, which is exactly V_1(a).

Class elements are plain integer tuples of length ``class_rank``, in the
basis of the classes of rho0 (and eta0 on V_s(a)).  The fan fixes the class
map, by 0 -> M -> Z^rays -> Cl(X) -> 0: the other rays span a maximal cone,
and the column m_k of its inverse ray matrix pairs to 1 with its ray k and
to 0 with its other rays, so div(chi^(m_k)) gives [D_k] = -(<m_k, rho_b>)_b
over the basis rays b.  The fixed divisor of a class sits on the basis rays.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import combinations, product
from operator import attrgetter, gt, mul

from .errors import UnsupportedVarietyError


class FrozenValue:
    """Base of the record classes: an immutable value made of its fields.

    A subclass lists its fields as annotations, in order, and gives a
    default as a class attribute.  It is built as a frozen dataclass is:
    by position or by keyword, refused with Python's own ``TypeError``
    wording, and then ``__post_init__`` may check and normalise the fields
    through ``object.__setattr__``.  After that every assignment and
    deletion raises ``AttributeError`` ("cannot assign to field 'x'");
    ``cached_property`` writes to the instance dictionary and still works.
    Values are equal when their classes are the same and their field tuples
    equal, the hash is that of the field tuple unless the class defines its
    own ``__hash__``, and the repr reads ``Name(field=value, ...)``.

    It is not a dataclass because every process that imports this package
    starts cold: each command-line call and each benchmark repetition, and
    where ``PYTHONDONTWRITEBYTECODE`` is set, each also compiles every
    module from source.  ``dataclasses`` costs such a process its own
    import, which pulls in ``inspect``, ``ast`` and ``tokenize``, and one
    ``exec`` of generated methods per class; this base costs neither.
    """

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(cls.__dict__["__annotations__"])
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # not through self.__dict__: from Python 3.11 on, reading it turns the
        # instance's inline values into a dictionary, slower for every read
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not give every field by
        position, or Python's ``TypeError`` for the call."""
        names, call = cls.__match_args__, f"{cls.__qualname__}.__init__()"
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        most = len(names) + 1                      # self counts, as in Python's wording
        if len(args) >= most:
            least = most - len(cls._defaults)
            takes = f"{most}" if least == most else f"from {least} to {most}"
            raise TypeError(f"{call} takes {takes} positional arguments but {len(args) + 1} were given")
        missing = [repr(n) for n in names[len(args):]
                   if n not in kwargs and n not in cls._defaults]
        if missing:
            *head, last = missing
            listed = f"{', '.join(head)}{',' * (len(head) > 1)} and {last}" if head else last
            raise TypeError(f"{call} missing {len(missing)} required positional "
                            f"argument{'s' * bool(head)}: {listed}")
        return [*args, *(kwargs.get(n, cls._defaults.get(n)) for n in names[len(args):])]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Cone(FrozenValue):
    """A cone of the fan, identified by the indices of its rays."""

    ray_indices: tuple[int, ...]
    codim: int

    def __post_init__(self):
        rays = tuple(sorted(strict_ints(self.ray_indices, "cone ray index")))
        strict_int(self.codim, "cone codimension")
        if len(set(rays)) != len(rays):
            raise ValueError(f"cone rays must be distinct, got {self.ray_indices}")
        object.__setattr__(self, "ray_indices", rays)


class ToricVariety(FrozenValue):
    """A fan with its class group, given by its rays, their names and, on
    V_s(a), the split s.  The dimension, the class rank, the class [D_ray]
    of each ray (``degrees``), the family and the twist weights are read
    from these; ``divisor_class`` maps per-ray coefficients to their
    divisor's class."""

    rays: tuple[tuple[int, ...], ...]
    ray_names: tuple[str, ...]
    split_s: int | None = None            # s of V_s(a); None on P^n

    def __post_init__(self):
        rays = ordered(self.rays, "rays")
        if not rays:
            raise ValueError("a variety needs at least one ray")
        dim = len(ordered(rays[0], "ray"))
        rays = tuple(strict_ints(r, "ray entry", dim, "ray") for r in rays)
        names = ordered(self.ray_names, "ray names", str)
        if len(set(names)) != len(names):
            raise ValueError(f"ray names must be distinct, got {names!r}")
        if len(names) != len(rays):
            raise ValueError(f"ray names must have length {len(rays)}")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "ray_names", names)
        if self.split_s is not None:
            strict_int(self.split_s, "split bundle s", 1)
        if len(rays) != dim + self.class_rank:   # a smooth complete fan has dim + class rank rays
            kind = "variety without split s" if self.split_s is None else "split bundle"
            raise ValueError(f"a {kind} of dimension {dim} needs {dim + self.class_rank} rays, "
                             f"got {len(rays)}")
        if self.split_s is not None:
            _checked_weights(rays[0][self.split_s:])

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    @property
    def class_rank(self) -> int:
        return len(self._class_basis)

    @cached_property
    def _class_basis(self) -> tuple[int, ...]:
        """The rays whose classes are the basis: rho0, and eta0 on V_s(a)."""
        return (0,) if self.split_s is None else (0, self.split_s + 1)

    @cached_property
    def degrees(self) -> tuple[tuple[int, ...], ...]:
        """The class [D_ray] of each ray, derived from the rays by the rule
        of the module docstring; refused unless the rays off the class
        basis form a lattice basis."""
        from .rational_linalg import _integer_inverse   # it imports strict_int from here
        basis = self._class_basis
        cone = [k for k in range(self.ray_count) if k not in basis]
        inverse = _integer_inverse([self.rays[k] for k in cone])
        if inverse is None or inverse[1] != 1:
            raise ValueError("the rays off the class basis must form a lattice basis")
        classes = {b: tuple(int(b == c) for c in basis) for b in basis}
        for k, m_k in zip(cone, zip(*inverse[0])):
            classes[k] = tuple(-sum(map(mul, m_k, self.rays[b])) for b in basis)
        return tuple(classes[k] for k in range(self.ray_count))

    @property
    def family(self) -> str:
        return "split_bundle" if self.is_split_bundle else "projective"

    @property
    def split_a(self) -> tuple[int, ...] | None:
        """The twist weights a of V_s(a): the last r entries of rho0."""
        return None if self.split_s is None else self.rays[0][self.split_s:]

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    @property
    def is_split_bundle(self) -> bool:
        return self.split_s is not None

    def pairing(self, m: Sequence[int], ray_index: int) -> int:
        """<m, n(rho)> for the indexed ray and an integer character m."""
        ray = self.rays[strict_int(ray_index, "ray index", 0, self.ray_count - 1)]
        return sum(map(mul, strict_ints(m, "character entry", self.dim, "character"), ray))

    def character_embedding(self, m: Sequence[int]) -> tuple[int, ...]:
        """The tuple of pairings over all rays, i.e. the multidegree of chi^m."""
        return tuple(self.pairing(m, k) for k in range(self.ray_count))

    def cones(self) -> list[Cone]:
        """Every cone of the fan, including the zero cone, smallest first;
        a new list on each call, so a caller cannot change the cached one."""
        return list(self._fan.cones)

    def maximal_cones(self) -> list[Cone]:
        return [c for c in self._fan.cones if c.codim == 0]

    def check_cone(self, cone: Cone) -> Cone:
        if cone not in self._fan.members:
            raise ValueError(f"{cone} is not a cone of the fan of the sheaf's variety")
        return cone

    @cached_property
    def _fan(self) -> _Fan:
        """The fan's cones, built on first use and kept with the variety.

        A ray set spans a cone exactly when it omits a ray of each primitive
        collection: all rays on P^n, the rho rays and the eta rays on V_s(a).
        """
        cut = self.split_s + 1 if self.is_split_bundle else self.ray_count
        blocks = [b for b in (range(cut), range(cut, self.ray_count)) if b]
        proper = [[c for size in range(len(b)) for c in combinations(b, size)] for b in blocks]
        index_sets = [sum(parts, ()) for parts in product(*proper)]
        cones = [Cone(c, self.dim - len(c)) for c in index_sets]
        cones.sort(key=lambda c: (len(c.ray_indices), c.ray_indices))
        return _Fan(self.dim, self.ray_count, tuple(cones))

    def check_class(self, c: Sequence[int]) -> tuple[int, ...]:
        return strict_ints(c, "class element entry", self.class_rank, "class element")

    def divisor_class(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """The class sum_k coeffs_k [D_k] of a torus-invariant divisor."""
        coeffs = strict_ints(coeffs, "divisor coefficient", self.ray_count, "divisor coefficients")
        return tuple(sum(map(mul, coeffs, column)) for column in zip(*self.degrees))

    def twist_divisor(self, c: Sequence[int]) -> tuple[int, ...]:
        """Per-ray coefficients of the fixed divisor representative of c."""
        c = self.check_class(c)
        coeffs = [0] * self.ray_count
        for k, x in zip(self._class_basis, c):
            coeffs[k] = x
        return tuple(coeffs)

    def ray_index(self, name: str) -> int:
        try:
            return self.ray_names.index(name)
        except ValueError:
            raise ValueError(f"unknown ray name {name!r}; known: {self.ray_names}") from None


class _Fan:
    """The cones of a smooth fan, kept once per variety by
    ``ToricVariety._fan``.  ``chain[k]`` lists the ray sets of the cones of
    codimension k, the terms C^k of the cone complex, and
    ``outside_stars[rho]`` lists, in the same form, the cones outside the
    closed star of ray rho: the cones sigma for which sigma + {rho} is no
    cone."""

    def __init__(self, dim: int, ray_count: int, cones: tuple[Cone, ...]):
        self.cones = cones
        self.members = frozenset(cones)
        self.ray_count = ray_count
        self.chain = tuple(
            tuple(c.ray_indices for c in cones if c.codim == k) for k in range(dim + 1)
        )

    @cached_property
    def outside_stars(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        ray_sets = {c.ray_indices for c in self.cones}
        return tuple(
            tuple(
                tuple(rs for rs in terms if tuple(sorted({*rs, rho})) not in ray_sets)
                for terms in self.chain
            )
            for rho in range(self.ray_count)
        )


def projective_space(n: int) -> ToricVariety:
    strict_int(n, "projective space n", 1)
    rays = [tuple(-1 for _ in range(n))]
    rays += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    names = tuple(f"rho{i}" for i in range(n + 1))
    return ToricVariety(tuple(rays), names)


def split_bundle(s: int, a_list: Sequence[int]) -> ToricVariety:
    strict_int(s, "split bundle s", 1)
    a = _checked_weights(a_list)
    r = len(a)
    dim = s + r
    rays: list[tuple[int, ...]] = []
    rays.append(tuple([-1] * s + list(a)))
    for i in range(s):
        rays.append(tuple(1 if j == i else 0 for j in range(dim)))
    rays.append(tuple([0] * s + [-1] * r))
    for j in range(r):
        rays.append(tuple(1 if k == s + j else 0 for k in range(dim)))
    names = tuple(
        [f"rho{t}" for t in range(s + 1)] + [f"eta{u}" for u in range(r + 1)]
    )
    return ToricVariety(tuple(rays), names, split_s=s)


def hirzebruch(a: int) -> ToricVariety:
    """The Hirzebruch surface H_a; identical data to split_bundle(1, (a,))."""
    return split_bundle(1, (strict_int(a, "Hirzebruch parameter", 0),))


def split_data(variety: ToricVariety) -> tuple[int, tuple[int, ...]]:
    """(s, a) of a split-bundle variety; raises for the other families."""
    if not variety.is_split_bundle:
        raise UnsupportedVarietyError(
            f"operation requires a split-bundle variety, got {variety.family}"
        )
    return variety.split_s, variety.split_a


def strict_int(value, where: str, lo: int | None = None, hi: int | None = None) -> int:
    """A value that must be an integer; booleans, floats and strings are
    refused rather than coerced.  Given a range, ``lo`` alone or ``lo`` and
    ``hi`` (both ends included), a value outside it is refused as "<where>
    must be at least <lo>, got <value>" or "<where> must lie in <lo>..<hi>,
    got <value>"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if lo is not None and (value < lo or hi is not None and value > hi):
        bound = f"must be at least {lo}" if hi is None else f"must lie in {lo}..{hi}"
        raise ValueError(f"{where} {bound}, got {value!r}")
    return value


def ordered(values, name: str, kind: type | None = None) -> tuple:
    """A sequence as a tuple.  A mapping, a set, an iterator, text or bytes
    is refused, as "<name> must be a sequence": its order is not one the
    caller wrote, or its characters or bytes are not the caller's values.
    Given a ``kind``, an item that is not one is refused, as "<name> must
    hold <Kind> values, got <type>"; without one no item is looked at."""
    if type(values) in (tuple, list) or isinstance(values, Sequence) and not isinstance(values, (str, bytes, bytearray)):
        values = tuple(values)
        if kind is not None:
            for x in values:
                if not isinstance(x, kind):
                    raise ValueError(f"{name} must hold {kind.__name__} values, got {type(x).__name__}")
        return values
    raise ValueError(f"{name} must be a sequence, got {type(values).__name__}")


def strict_ints(
    values: Sequence, where: str, length: int | None = None, name: str | None = None,
    lo: int | None = None, hi: int | None = None,
) -> tuple[int, ...]:
    """The values as a tuple, each checked by ``strict_int`` with ``where``
    and the range, if any.  They must come in a sequence (``ordered``).
    Given a ``length``, a tuple of another length is refused first, as
    "<name> must have length <length>"; then the first entry that is no
    integer or lies outside the range.  A sequence of plain ints in range
    costs one scan of the entry types, and with a range one ``min`` and
    one ``max``."""
    values = ordered(values, name or f"{where} values")
    if length is not None and len(values) != length:
        raise ValueError(f"{name} must have length {length}")
    if not {int}.issuperset(map(type, values)) or lo is not None and values and (
            min(values) < lo or hi is not None and max(values) > hi):
        for x in values:
            strict_int(x, where, lo, hi)
    return values


def _checked_weights(a_list: Sequence[int]) -> tuple[int, ...]:
    """The twist weights a_1, ..., a_r of V_s(a): at least one, with
    0 <= a1 <= ... <= ar."""
    a = strict_ints(a_list, "twist weight")
    if not a:
        raise ValueError("need at least one twist weight")
    if a[0] < 0 or any(map(gt, a, a[1:])):
        raise ValueError("twist weights must satisfy 0 <= a1 <= ... <= ar")
    return a
