"""Independent reference checker for the outputs of ``hexacomplex`` commands.

Nothing here imports the library.  Values are held as their *spectrum*:
the evaluations u(zeta) at the roots of x^6 = 1 (polar) or x^6 = -1
(planar), computed with mpmath at 40 digits.  Ring operations and the
elementary functions act on each evaluation separately, which is the
mathematical definition the library's canonical decomposition implements
with its own float tables.  Polynomial expansions use exact decimal
arithmetic, because printed factors are exact decimals.

:func:`check` turns one command and its captured outcome into a
:class:`Verdict`: whether the outcome is acceptable and, for accepted
numeric output, the fewest correct significant digits in it.
"""

from __future__ import annotations

import decimal
import math
import re
from typing import NamedTuple

import mpmath
from mpmath import mp, mpc, mpf

mp.dps = 40

DBL_MAX = mpf(1.7976931348623157e308)
ZERO_RTOL = mpf("1e-13")  # the library's ZERO_COMPONENT_RTOL
MAX_DIGITS = 17.0

# Tolerances pinned by the repository's own tests (see perfbench/README.md):
EVAL_RTOL = 1e-9           # printed with 12 digits; normwise relative
TABLE_ATOL = 1e-11         # times max(1, e^|y|), as tests/test_cosexp.py
INTEGRATE_ATOL = {4096: 1e-5, 2048: 1e-4, 1024: 1e-4}  # times max(1, |ref|)
FORMULA_RTOL = 1e-10
FACTOR_RTOL = 1e-7         # times max(1, max |coefficient|), tests/test_polyfactor.py
OFF_BLOCK_ATOL = 1e-10     # times max(1, |U|), tests/test_cli.py
ANGLE_ATOL = 1e-7
# Absolute allowance per unit of the largest intermediate evaluation, and the
# ratio below which a result counts as cancelled (its digits are not scored).
ROUNDING_FLOOR = mpf("1e-13")
CANCELLED = 1e6
# Relative allowance per unit of condition number: a value held as six
# components carries each evaluation u(zeta) to about eps * |u| absolutely,
# so inverting it loses max|u(zeta)| / min|u(zeta)| in relative accuracy.
COND_RTOL = 1e-14


class Verdict(NamedTuple):
    ok: bool
    digits: float | None
    reason: str


def _relative_digits(err, scale, floor):
    """Digits of a normwise error, or None for results that cancel to rounding level."""
    if scale <= CANCELLED * floor:
        return None
    return _digits(err / scale)


def _digits(rel_err) -> float:
    if rel_err <= 0:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -math.log10(float(rel_err))))


# -- spectrum arithmetic -----------------------------------------------------------


def _zetas(variant: str) -> list:
    if variant == "polar":
        return [mpmath.expjpi(mpf(k) / 3) for k in (1, 2)]
    return [mpmath.expjpi(mpf(2 * k - 1) / 6) for k in (1, 2, 3)]


_ZETA = {v: _zetas(v) for v in ("polar", "planar")}
# zeta_k ** p and zeta_k ** -p for p = 0..5
_POW = {v: [[z ** p for p in range(6)] for z in zs] for v, zs in _ZETA.items()}
_INV_POW = {v: [[z ** -p for p in range(6)] for z in zs] for v, zs in _ZETA.items()}


class Spec(NamedTuple):
    """A value as (axis values, plane values); planar values have no axes."""

    variant: str
    axes: tuple
    planes: tuple

    @classmethod
    def of(cls, variant: str, comps) -> "Spec":
        comps = [mpf(c) for c in comps]
        axes = ()
        if variant == "polar":
            axes = (sum(comps), sum(c if p % 2 == 0 else -c for p, c in enumerate(comps)))
        planes = tuple(sum(c * zp for c, zp in zip(comps, powers)) for powers in _POW[variant])
        return cls(variant, axes, planes)

    def components(self) -> list:
        out = []
        for p in range(6):
            total = mpf(0)
            if self.variant == "polar":
                total = (self.axes[0] + (-1) ** p * self.axes[1]) / 6
            total += sum((v * powers[p]).real
                         for v, powers in zip(self.planes, _INV_POW[self.variant])) / 3
            out.append(total)
        return out

    def labels(self) -> list:
        planes = [(f"pair{k}", f"rho{k}") for k in range(1, len(self.planes) + 1)]
        return ([("v+",), ("v-",)] if self.variant == "polar" else []) + planes

    def values(self) -> list:
        return list(self.axes) + list(self.planes)

    def map(self, axis_fn, plane_fn) -> "Spec":
        return Spec(self.variant, tuple(axis_fn(v) for v in self.axes),
                    tuple(plane_fn(v) for v in self.planes))

    def zip(self, other: "Spec", fn) -> "Spec":
        return Spec(self.variant, tuple(fn(a, b) for a, b in zip(self.axes, other.axes)),
                    tuple(fn(a, b) for a, b in zip(self.planes, other.planes)))


def _norm(values) -> mpf:
    return mpmath.sqrt(sum(abs(v) ** 2 for v in values))


class Expected(Exception):
    """The program should fail with a HexaError naming one of ``labels``."""

    def __init__(self, labels):
        super().__init__(labels)
        self.labels = labels


class _Walk:
    """Evaluates a benchmark expression tree on spectra, tracking hazards."""

    def __init__(self, variant: str, flip: bool = False):
        self.variant = variant
        self.flip = flip           # take azimuth 2*pi instead of 0 on the branch cut
        self.overflow = False      # some intermediate exceeds the double range
        self.branch_cut = False    # a log/real power met a plane value on its branch cut
        self.magnitude = mpf(1)    # largest evaluation met along the way
        self.cond = mpf(1)         # product of the condition numbers of inversions

    def _note(self, s: Spec) -> Spec:
        # components are bounded by the largest evaluation and vice versa (up to 6x)
        largest = max(abs(v) for v in s.values())
        self.magnitude = max(self.magnitude, largest)
        if largest > DBL_MAX / 8:
            self.overflow = True
        return s

    def _threshold(self, s: Spec) -> mpf:
        return ZERO_RTOL * _norm(s.components())

    def _require_invertible(self, s: Spec) -> None:
        thr = self._threshold(s)
        for label, v in zip(s.labels(), s.values()):
            if abs(v) <= thr:
                raise Expected(label)
        sizes = [abs(v) for v in s.values()]
        self.cond *= max(sizes) / min(sizes)

    def _require_log_domain(self, s: Spec) -> None:
        thr = self._threshold(s)
        for label, v in zip(s.labels(), s.values()):
            bad = (v <= thr) if not isinstance(v, mpc) else (abs(v) <= thr)
            if bad:
                raise Expected(label)

    def _plane_arg(self, z) -> mpf:
        """Azimuth in [0, 2*pi).  Within rounding of the positive real axis the
        library may land on either side, so the walk is repeated with both."""
        if z.real > 0 and abs(z.imag) <= mpf("1e-12") * abs(z):
            self.branch_cut = True
            return 2 * mp.pi if self.flip else mpf(0)
        phi = mpmath.arg(z)
        return phi + 2 * mp.pi if phi < 0 else phi

    def _scalar(self, a) -> Spec:
        a = mpf(a)
        return Spec(self.variant, (a, a) if self.variant == "polar" else (),
                    tuple(mpc(a) for _ in _ZETA[self.variant]))

    def _basis(self, k: int) -> Spec:
        return Spec(self.variant, (mpf(1), mpf((-1) ** k)) if self.variant == "polar" else (),
                    tuple(z ** k for z in _ZETA[self.variant]))

    def _parse_literal(self, text: str) -> Spec:
        total = self._scalar(0)
        for sign, term in re.findall(r"([+-]?)\s*(h\d|\d+(?:\.\d*)?)", text):
            value = self._basis(int(term[1])) if term.startswith("h") else self._scalar(term)
            total = total.zip(value, (lambda a, b: a - b) if sign == "-" else (lambda a, b: a + b))
        return total

    def inverse(self, s: Spec) -> Spec:
        self._require_invertible(s)
        return s.map(lambda v: 1 / v, lambda v: 1 / v)

    def power(self, s: Spec, n: int) -> Spec:
        if n < 0:
            s = self.inverse(s)
            n = -n
        return s.map(lambda v: v ** n, lambda v: v ** n)

    def real_power(self, s: Spec, m: mpf) -> Spec:
        if m == int(m):
            n = int(m)
            if n < 0:
                self._require_invertible(s)
            return s.map(lambda v: v ** n, lambda v: v ** n)
        self._require_log_domain(s)
        return s.map(lambda v: v ** m,
                     lambda z: abs(z) ** m * mpmath.expj(m * self._plane_arg(z)))

    def call(self, name: str, s: Spec) -> Spec:
        if name == "inv":
            return self.inverse(s)
        if name == "ln":
            self._require_log_domain(s)
            return s.map(mpmath.log, lambda z: mpc(mpmath.log(abs(z)), self._plane_arg(z)))
        fn = getattr(mpmath, name)
        return s.map(fn, fn)

    def __call__(self, node) -> Spec:
        tag = node[0]
        if tag == "num":
            return self._note(self._scalar(node[1]))
        if tag == "h":
            return self._basis(node[1])
        if tag == "zd":
            return self._parse_literal(node[1])
        if tag == "neg":
            return self(node[1]).map(lambda v: -v, lambda v: -v)
        if tag == "bin":
            _, op, a, b = node
            left, right = self(a), self(b)
            if op == "+":
                out = left.zip(right, lambda x, y: x + y)
            elif op == "-":
                out = left.zip(right, lambda x, y: x - y)
            elif op == "/":
                out = left.zip(self.inverse(right), lambda x, y: x * y)
            else:
                out = left.zip(right, lambda x, y: x * y)
            return self._note(out)
        if tag == "pow":
            return self._note(self.power(self(node[1]), node[2]))
        if tag == "call":
            return self._note(self.call(node[1], self(node[2])))
        if tag == "callpow":
            base = self(node[1])
            return self._note(self.real_power(base, mpf(node[2])))
        raise ValueError(f"unknown node {node!r}")


# -- output parsing -------------------------------------------------------------------

_TERM = re.compile(r"^(?:(?P<num>[0-9.]+(?:e[+-]?\d+)?)(?: |$))?(?P<basis>h[1-5])?$")


def parse_hexa(text: str, num=mpf) -> list:
    """Components of a value printed by the library's ``format_hexa``, as ``num``."""
    text = text.strip()
    comps = [num(0)] * 6
    if text == "0":
        return comps
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, piece in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2 == 1:
            sign = 1 if piece == "+" else -1
            continue
        m = _TERM.match(piece)
        if m is None or (m.group("num") is None and m.group("basis") is None):
            raise ValueError(f"unparseable term {piece!r}")
        value = num(m.group("num")) if m.group("num") else num(1)
        index = int(m.group("basis")[1]) if m.group("basis") else 0
        comps[index] += sign * value
    return comps


def _rel(out, ref) -> tuple:
    """Normwise error of ``out`` against ``ref`` and its scale |ref|."""
    return _norm([a - b for a, b in zip(out, ref)]), _norm(ref)


# -- verdicts per command kind -------------------------------------------------------------


def _expect_error(outcome, labels=None, codes=(1,)) -> Verdict:
    if outcome["rc"] not in codes:
        return Verdict(False, None, f"expected a HexaError (exit {codes}), got exit {outcome['rc']}")
    if not outcome["err"].startswith(("error:", "parse error:")):
        return Verdict(False, None, f"error message malformed: {outcome['err'][:80]!r}")
    if labels and not any(label in outcome["err"] for label in labels):
        return Verdict(False, None, f"error should name {labels[0]}: {outcome['err'][:80]!r}")
    return Verdict(True, None, "expected error")


def _check_eval(out: str, ref: list, rtol: mpf, floor: mpf) -> Verdict:
    """``floor`` allows for rounding of the intermediates when a result cancels to ~0."""
    err, scale = _rel(parse_hexa(out), ref)
    if err > rtol * scale + floor:
        return Verdict(False, None, f"value off by {float(err):.3e} (|ref| {float(scale):.3e})")
    return Verdict(True, _relative_digits(err, scale, floor), "value")


def _geometry(s: Spec, comps) -> dict:
    d = _norm(comps)
    thr = ZERO_RTOL * d
    two_pi = 2 * mp.pi

    def plane(z):
        r = abs(z)
        if r <= thr:
            return mpf(0), None
        phi = mpmath.atan2(z.imag, z.real)
        return r, (phi + two_pi if phi < 0 else phi)

    g = {"d": d}
    radii = [plane(z) for z in s.planes]
    for k, (r, phi) in enumerate(radii, start=1):
        g[f"rho{k}"] = r
        g[f"phi{k}"] = phi
    r1, r2 = radii[0][0], radii[1][0]
    g["psi1"] = mpmath.atan2(r1, r2) if max(r1, r2) > 0 else None
    if s.variant == "planar":
        r3 = radii[2][0]
        g["psi2"] = mpmath.atan2(r1, r3) if max(r1, r3) > 0 else None
        g["rho"] = mpmath.cbrt(r1 * r2 * r3)
        return g
    vp = mpf(0) if abs(s.axes[0]) <= thr else s.axes[0]
    vm = mpf(0) if abs(s.axes[1]) <= thr else s.axes[1]
    g["theta_plus"] = mpmath.atan2(mpmath.sqrt(2) * r1, vp) if r1 > 0 or vp != 0 else None
    g["theta_minus"] = mpmath.atan2(mpmath.sqrt(2) * r1, vm) if r1 > 0 or vm != 0 else None
    if min(r1, r2, abs(vp), abs(vm)) == 0:
        g["rho"] = mpf(0)
    elif vp * vm < 0:
        g["rho"] = None
    else:
        g["rho"] = mpmath.root(vp * vm * r1 ** 2 * r2 ** 2, 6)
    return g


def _check_canon(out: str, s: Spec, comps, rtol: mpf, floor: mpf) -> Verdict:
    fields = dict(line.split("=", 1) for line in out.splitlines())
    canon = []
    if s.variant == "polar":
        canon += [("v_plus", s.axes[0]), ("v_minus", s.axes[1])]
    for k, z in enumerate(s.planes, start=1):
        canon += [(f"v{k}", z.real), (f"v{k}_tilde", z.imag)]
    if any(k not in fields for k, _ in canon):
        return Verdict(False, None, f"canonical variables missing from {sorted(fields)}")
    got = [mpf(fields[k]) for k, _ in canon]
    err, scale = _rel(got, [v for _, v in canon])
    if err > rtol * scale + floor:
        return Verdict(False, None, f"canonical variables off by {float(err):.3e}")
    if scale <= CANCELLED * floor:
        # rounding decides which geometry fields exist for a value at ~0
        return Verdict(True, None, "canon of a cancelled value")
    geometry = {k: v for k, v in _geometry(s, comps).items() if v is not None}
    expected_keys = [k for k, _ in canon] + list(geometry)
    if sorted(fields) != sorted(expected_keys):
        return Verdict(False, None, f"fields {sorted(fields)} != {sorted(expected_keys)}")
    d = geometry["d"]
    worst = err / scale
    for key, ref in geometry.items():
        value = mpf(fields[key])
        if key.startswith(("phi", "psi", "theta")):
            diff = abs(value - ref)
            if key.startswith("phi"):
                diff = min(diff, abs(2 * mp.pi - diff))
            if diff > ANGLE_ATOL:
                return Verdict(False, None, f"{key}={fields[key]} differs from {float(ref):.12g}")
        else:
            field_err = abs(value - ref) / d
            if field_err > rtol:
                return Verdict(False, None, f"{key}={fields[key]} differs from {float(ref):.12g}")
            worst = max(worst, field_err)
    return Verdict(True, _digits(worst), "canon")


def _ring_mul(variant: str, x, y) -> list:
    out = [0] * 6
    for j in range(6):
        for k in range(6):
            s = j + k
            term = x[j] * y[k]
            if s >= 6:
                s -= 6
                if variant == "planar":
                    term = -term
            out[s] += term
    return out


def _rotation_rows(variant: str) -> list:
    rows = []
    if variant == "polar":
        rows += [[1 / mpmath.sqrt(6)] * 6, [(-1) ** p / mpmath.sqrt(6) for p in range(6)]]
    for k in range(1, 3 if variant == "polar" else 4):
        m = 2 * k if variant == "polar" else 2 * k - 1
        rows.append([mpmath.cospi(mpf(m * p) / 6) / mpmath.sqrt(3) for p in range(6)])
        rows.append([mpmath.sinpi(mpf(m * p) / 6) / mpmath.sqrt(3) for p in range(6)])
    return rows


def _matrix(lines) -> list:
    return [[mpf(v) for v in line.split()] for line in lines]


def _check_repr(out: str, variant: str, comps, rtol: mpf, floor: mpf) -> Verdict:
    lines = out.splitlines()
    blocks = 4 if variant == "polar" else 3
    if len(lines) != 14 + blocks + 1 or lines[0] != "U =" or lines[7] != "T U T^-1 =":
        return Verdict(False, None, "repr layout differs")
    basis = [[1 if p == i else 0 for p in range(6)] for i in range(6)]
    u_ref = [_ring_mul(variant, basis[i], comps) for i in range(6)]
    t = _rotation_rows(variant)
    tu = [[sum(t[i][k] * u_ref[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    m_ref = [[sum(tu[i][k] * t[j][k] for k in range(6)) for j in range(6)] for i in range(6)]
    u_out, m_out = _matrix(lines[1:7]), _matrix(lines[8:14])
    flat = lambda m: [v for row in m for v in row]  # noqa: E731
    scale = max(abs(v) for v in flat(u_ref)) or mpf(1)
    err = max(max(abs(a - b) for a, b in zip(flat(u_out), flat(u_ref))),
              max(abs(a - b) for a, b in zip(flat(m_out), flat(m_ref))))
    if err > rtol * scale + floor:
        return Verdict(False, None, f"matrix entries off by {float(err):.3e}")
    idx = 0
    for line in lines[14:14 + blocks]:
        label, body = line.split(" = ", 1)
        values = [mpf(v) for v in body.replace("[", "").replace("]", "").split(",")]
        size = 1 if len(values) == 1 else 2
        block = [m_ref[idx + i][idx + j] for i in range(size) for j in range(size)]
        if max(abs(a - b) for a, b in zip(values, block)) > rtol * scale + floor:
            return Verdict(False, None, f"block {label} differs")
        idx += size
    off = float(lines[-1].split("=", 1)[1])
    if not lines[-1].startswith("off_block_max=") or off > OFF_BLOCK_ATOL * max(1.0, float(scale)):
        return Verdict(False, None, f"off-block residue {lines[-1]!r}")
    return Verdict(True, _relative_digits(err, scale, floor), "repr")


def check_expression(command: str, spec: dict, outcome: dict) -> Verdict:
    """eval / canon / repr of a generated expression tree."""
    for flip in (False, True):
        walk = _Walk(spec["variant"], flip)
        verdict = _check_walk(walk, command, spec, outcome)
        if verdict.ok or not walk.branch_cut:
            return verdict
    return verdict


def _check_walk(walk: _Walk, command: str, spec: dict, outcome: dict) -> Verdict:
    try:
        s = walk(spec["tree"])
    except Expected as exc:
        if walk.overflow:
            return _expect_error(outcome, codes=(1, 2))
        return _expect_error(outcome, exc.labels)
    comps = s.components()
    if any(abs(c) > DBL_MAX for c in comps):
        return _expect_error(outcome, codes=(1, 2))
    if walk.overflow and outcome["rc"] in (1, 2):
        return _expect_error(outcome, codes=(1, 2))
    if outcome["rc"] != 0:
        return Verdict(False, None, f"exit {outcome['rc']} for a representable value: "
                                    f"{outcome['err'].strip()[:80]!r}")
    rtol = max(EVAL_RTOL, COND_RTOL * walk.cond)
    floor = ROUNDING_FLOOR * walk.magnitude
    if command == "eval":
        return _check_eval(outcome["out"], comps, rtol, floor)
    if command == "canon":
        return _check_canon(outcome["out"], s, comps, rtol, floor)
    return _check_repr(outcome["out"], spec["variant"], comps, rtol, floor)


# -- integrate ---------------------------------------------------------------------------


def integrate_reference(spec: dict) -> list:
    """Components of the residue value 2*pi*i*f(u0) in the winding plane."""
    s = Spec.of(spec["variant"], spec["pole"])
    fn = spec["function"]
    if fn in ("u2", "u3"):
        n = int(fn[1])
        f = s.map(lambda v: v ** n, lambda v: v ** n)
    else:
        f = s.map(getattr(mpmath, fn), getattr(mpmath, fn))
    plane = spec["plane"]
    planes = tuple(2j * mp.pi * z if k == plane else mpc(0)
                   for k, z in enumerate(f.planes, start=1))
    return Spec(spec["variant"], tuple(mpf(0) for _ in f.axes), planes).components()


def check_integrate(spec: dict, outcome: dict) -> Verdict:
    if outcome["rc"] != 0:
        return Verdict(False, None, f"exit {outcome['rc']}: {outcome['err'].strip()[:80]!r}")
    fields = dict(line.split("=", 1) for line in outcome["out"].splitlines())
    planes = 2 if spec["variant"] == "polar" else 3
    windings = str(tuple(1 if k == spec["plane"] else 0 for k in range(1, planes + 1)))
    if fields.get("windings") != windings:
        return Verdict(False, None, f"windings {fields.get('windings')} != {windings}")
    ref = integrate_reference(spec)
    numeric, formula = parse_hexa(fields["numeric"]), parse_hexa(fields["formula"])
    scale = _norm(ref)
    num_err, form_err = _rel(numeric, ref)[0], _rel(formula, ref)[0]
    if num_err > INTEGRATE_ATOL[spec["samples"]] * max(1, scale):
        return Verdict(False, None, f"numeric off by {float(num_err):.3e}")
    if form_err > FORMULA_RTOL * max(1, scale):
        return Verdict(False, None, f"formula off by {float(form_err):.3e}")
    diff = max(abs(a - b) for a, b in zip(numeric, formula))
    if abs(float(fields["max_abs_difference"]) - diff) > 1e-2 * diff + 1e-11 * max(1, scale):
        return Verdict(False, None, f"max_abs_difference {fields['max_abs_difference']} != {float(diff):.3e}")
    return Verdict(True, _digits(max(num_err, form_err) / scale), "integrate")


# -- table -------------------------------------------------------------------------------

_CELL_CACHE: dict = {}
_SERIES_EPS = mpf(10) ** (-mp.dps - 5)


def cosexp_cells(family: str, y: float) -> list:
    """The six cosexponentials g_k(y) (polar) or f_k(y) (planar) to 40 digits."""
    yy = mpf(y)
    if abs(y) <= 30:
        # power series of e^y split by residue n mod 6 and by wrap parity
        # (n // 6) % 2: g_k = even + odd, f_k = even - odd; no cancellation
        # within a class, so 40 digits are plenty
        even, odd = [mpf(0)] * 6, [mpf(0)] * 6
        term, n = mpf(1), 0
        while True:
            sums = odd if (n // 6) % 2 else even
            for k in range(6):
                sums[k] += term
                n += 1
                term = term * yy / n
            if n > abs(y) + 6 and abs(term) < _SERIES_EPS * max(1, abs(even[0])):
                sign = 1 if family == "g" else -1
                return [a + sign * b for a, b in zip(even, odd)]
    with mp.workdps(60):
        roots = ([mpmath.expjpi(mpf(2 * l) / 6) for l in range(6)] if family == "g"
                 else [mpmath.expjpi(mpf(2 * l - 1) / 6) for l in range(1, 7)])
        return [sum(mpmath.exp(yy * r) * r ** (-k) for r in roots).real / 6 for k in range(6)]


def _split_cells(family: str, y: float) -> list:
    """Each cell as a double-double (hi, lo), or None when it exceeds the double range."""
    key = (family, y)
    if key not in _CELL_CACHE:
        pairs = []
        for c in cosexp_cells(family, y):
            if abs(c) > DBL_MAX:
                pairs.append(None)
            else:
                hi = float(c)
                pairs.append((hi, float(c - hi)))
        _CELL_CACHE[key] = pairs
    return _CELL_CACHE[key]


def check_table(spec: dict, outcome: dict) -> Verdict:
    start, stop, step = spec["grid"]
    count = max(int(math.floor((stop - start) / step + 1e-9)) + 1, 1)
    ys = [start + i * step for i in range(count)]
    refs = [_split_cells(spec["family"], y) for y in ys]
    if any(cell is None for row in refs for cell in row):
        verdict = _expect_error(outcome)
        if verdict.ok and outcome["out"].count("\n") > 1:
            return Verdict(False, None, "truncated CSV left on stdout")
        return verdict
    if outcome["rc"] != 0:
        return Verdict(False, None, f"exit {outcome['rc']} for a representable table")
    lines = outcome["out"].splitlines()
    if lines[0] != "y,c0,c1,c2,c3,c4,c5" or len(lines) != count + 1:
        return Verdict(False, None, f"expected {count} rows, got {len(lines) - 1}")
    worst = 0.0
    for line, y, ref in zip(lines[1:], ys, refs):
        cells = [float(text) for text in line.split(",")]
        if cells[0] != y:
            return Verdict(False, None, f"grid point {cells[0]!r} != {y!r}")
        tol = TABLE_ATOL * max(1.0, math.exp(min(abs(y), 700.0)))
        for value, (hi, lo) in zip(cells[1:], ref):
            err = abs((value - hi) - lo)
            if err > tol:
                return Verdict(False, None, f"cell at y={y!r} off by {err:.3e}")
            worst = max(worst, err / abs(hi) if hi else (0.0 if err == 0.0 else 1.0))
    return Verdict(True, _digits(worst), "table")


# -- factor --------------------------------------------------------------------------------

decimal.getcontext().prec = 120  # exact for products of 12-digit factors

_FACTOR = re.compile(r"^u\^2(?: \+ \((?P<b>[^()]*)\) u)?(?: \+ \((?P<c>[^()]*)\))?$")


def _dec_hexa(text: str) -> list:
    return parse_hexa(text, decimal.Decimal)


_PIECES: dict = {}


def _piece(body: str) -> list:
    """Coefficient list (leading first) of one printed factor."""
    if body in _PIECES:
        return _PIECES[body]
    zero, one = [decimal.Decimal(0)] * 6, [decimal.Decimal(1)] + [decimal.Decimal(0)] * 5
    if body == "u":
        coeffs = [one, zero]
    elif body.startswith("u^2"):
        m = _FACTOR.match(body)
        if m is None:
            raise ValueError(f"unparseable factor {body!r}")
        coeffs = [one, _dec_hexa(m.group("b")) if m.group("b") else zero,
                  _dec_hexa(m.group("c")) if m.group("c") else zero]
    else:
        sign, rest = body[2], body[4:]
        if rest.startswith("(") and rest.endswith(")"):
            rest = rest[1:-1]
        value = _dec_hexa(rest)
        coeffs = [one, value if sign == "+" else [-v for v in value]]
    _PIECES[body] = coeffs
    return coeffs


def expand_line(variant: str, line: str) -> list:
    if not (line.startswith("[") and line.endswith("]")):
        raise ValueError(f"unparseable factorization {line!r}")
    acc = [[decimal.Decimal(1)] + [decimal.Decimal(0)] * 5]
    for body in line[1:-1].split("]["):
        piece = _piece(body)
        out = [[decimal.Decimal(0)] * 6 for _ in range(len(acc) + len(piece) - 1)]
        for i, a in enumerate(acc):
            for j, b in enumerate(piece):
                prod = _ring_mul(variant, a, b)
                out[i + j] = [x + y for x, y in zip(out[i + j], prod)]
        acc = out
    return acc[1:]


def check_factor(spec: dict, outcome: dict) -> Verdict:
    if outcome["rc"] != 0:
        return Verdict(False, None, f"exit {outcome['rc']}: {outcome['err'].strip()[:80]!r}")
    lines = outcome["out"].splitlines()
    if spec["limit"] is None and len(lines) != 1:
        return Verdict(False, None, f"expected one factorization, got {len(lines)}")
    if spec["expected"] is not None and len(lines) != spec["expected"]:
        return Verdict(False, None, f"expected {spec['expected']} factorizations, got {len(lines)}")
    if spec["limit"] is not None and len(lines) > spec["limit"]:
        return Verdict(False, None, f"{len(lines)} factorizations exceed the limit")
    keys = {tuple(sorted(line[1:-1].split("]["))) for line in lines}
    if len(keys) != len(lines):
        return Verdict(False, None, "repeated factorization")
    target = [[decimal.Decimal(c) for c in coeff] for coeff in spec["coeffs"]]
    scale = max(max(abs(c) for c in coeff) for coeff in target)
    tol = decimal.Decimal(FACTOR_RTOL) * max(decimal.Decimal(1), scale)
    worst = decimal.Decimal(0)
    for line in lines:
        expanded = expand_line(spec["variant"], line)
        if len(expanded) != len(target):
            return Verdict(False, None, f"degree of {line!r} differs")
        err = max(max(abs(a - b) for a, b in zip(x, y)) for x, y in zip(expanded, target))
        if err > tol:
            return Verdict(False, None, f"{line!r} expands with error {float(err):.3e}")
        worst = max(worst, err)
    return Verdict(True, _digits(worst / scale), "factor")


def check(command, outcome: dict) -> Verdict:
    """Judge one command's outcome: ``outcome`` has rc, out, err and tb (traceback or None)."""
    if outcome.get("tb"):
        return Verdict(False, None, "traceback: " + outcome["tb"].strip().splitlines()[-1][:120])
    spec = command.spec
    try:
        if command.kind == "integrate":
            return check_integrate(spec, outcome)
        if "family" in spec:
            return check_table(spec, outcome)
        if command.kind in ("factor", "factor-all"):
            return check_factor(spec, outcome)
        return check_expression(spec.get("command", command.kind), spec, outcome)
    except (ValueError, KeyError, IndexError, decimal.InvalidOperation) as exc:
        return Verdict(False, None, f"output does not parse: {exc}")
