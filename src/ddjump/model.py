"""Process definitions: config parsing and the compiled rate kernel.

A model is a density-dependent jump process on the integer lattice: from
state X it jumps to X + J at rate N * r_J(X/N) for each jump J in a finite
set.  The scaled process X/N then tracks the drift ODE dy/dt = sum_J J r_J(y).

Config format (line oriented; ``#`` starts a comment; blank lines ignored)::

    [dimension]
    2
    [params]
    alpha = 2.0
    beta = 1.0
    gamma = 1.0
    [jumps]
    -1  1 : alpha * x1 * x2
     1  0 : beta
     0 -1 : gamma * x2
    [domain]            # optional; omitted => nonnegative orthant
    x1 >= 0
    x2 >= 0

Domain lines are axis-aligned bounds ``x<i> >= c`` / ``x<i> <= c``.  Any
other non-blank line is rejected with its line number.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import expr as ex
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    RateError,
)


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box; unbounded sides are +/-inf."""

    lower: tuple
    upper: tuple

    @staticmethod
    def nonnegative_orthant(d):
        return Domain(lower=(0.0,) * d, upper=(math.inf,) * d)

    @staticmethod
    def unbounded(d):
        return Domain(lower=(-math.inf,) * d, upper=(math.inf,) * d)

    def contains(self, y):
        return bool(self._inside(y))

    def _inside(self, Y):
        """Whether each point ``Y[..., :]`` lies in the box (NaN does not)."""
        Y = np.asarray(Y, dtype=float)
        return ((Y >= self.lower) & (Y <= self.upper)).all(axis=-1)

    def m_distance_to_boundary(self, c, M):
        """M-norm distance from ``c`` to the nearest finite face.

        The M-distance from a point to the hyperplane x_i = b equals
        |c_i - b| / sqrt((M^-1)_ii).
        """
        c = np.asarray(c, dtype=float)
        Minv = np.linalg.inv(M)
        dist = math.inf
        for i in range(len(c)):
            scale = math.sqrt(Minv[i, i])
            if math.isfinite(self.lower[i]):
                dist = min(dist, (c[i] - self.lower[i]) / scale)
            if math.isfinite(self.upper[i]):
                dist = min(dist, (self.upper[i] - c[i]) / scale)
        return dist


@dataclass(frozen=True)
class Model:
    """Immutable process definition; all operations on it are pure.

    ``kernel`` holds the model's compiled ``Kernel``.
    """

    d: int
    jumps: tuple  # tuple of d-tuples of ints
    rate_exprs: tuple  # parallel tuple of expression trees
    params: dict
    domain: Domain
    source: str = field(default="", repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        if not self.jumps:
            raise ConfigError("a model needs at least one jump")
        for k, J in enumerate(self.jumps):
            check_jump(self.d, J, self.jumps[:k])
        # not a field: pickles carry only the fields; __setstate__ recompiles
        object.__setattr__(self, "kernel", _compile_kernel(self))

    @property
    def jump_array(self):
        return np.array(self.jumps, dtype=np.int64)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        for k, v in state.items():
            object.__setattr__(self, k, v)
        object.__setattr__(self, "kernel", _compile_kernel(self))


def check_jump(d, J, earlier):
    """The jump rule: ``J`` has ``d`` coordinates, is not the zero vector and
    is none of the ``earlier`` jumps.  ``parse_model`` adds the line."""
    if len(J) != d:
        raise DimensionMismatchError(f"jump {J} has dimension {len(J)}, expected {d}")
    if all(v == 0 for v in J):
        raise ConfigError(f"jump {J} is the zero vector")
    if J in earlier:
        raise ConfigError(f"duplicate jump {J}")


_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")
_PARAM_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(\S+)$")
_DOMAIN_RE = re.compile(r"^x([1-9]\d*)\s*(>=|<=)\s*(\S+)$")


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_model(text):
    """Parse a config document into a :class:`Model`.

    Rejects trailing garbage: every non-blank line must belong to a known
    section and match that section's grammar.
    """
    sections = {}
    current = None
    raws = text.splitlines()
    for lineno, raw in enumerate(raws, start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in ("dimension", "params", "jumps", "domain"):
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ConfigError(f"content before any section: {line!r}", line=lineno)
        sections[current].append((lineno, line))

    if "dimension" not in sections:
        raise ConfigError("missing [dimension] section")
    dim_lines = sections["dimension"]
    if len(dim_lines) != 1:
        raise ConfigError("[dimension] must contain exactly one integer line")
    lineno, line = dim_lines[0]
    try:
        d = int(line)
    except ValueError:
        raise ConfigError(f"dimension must be an integer, got {line!r}", line=lineno) from None
    if d < 1:
        raise ConfigError("dimension must be >= 1", line=lineno)

    params = {}
    for lineno, line in sections.get("params", []):
        m = _PARAM_RE.match(line)
        if m is None:
            raise ConfigError(f"malformed parameter line: {line!r}", line=lineno)
        name, val = m.group(1), m.group(2)
        if name in params:
            raise ConfigError(f"duplicate parameter {name!r}", line=lineno)
        if ex._VAR_RE.match(name):
            raise ConfigError(f"parameter name {name!r} is reserved for variables", line=lineno)
        try:
            params[name] = float(val)
        except ValueError:
            raise ConfigError(f"bad numeric value {val!r}", line=lineno) from None

    if "jumps" not in sections or not sections["jumps"]:
        raise ConfigError("missing or empty [jumps] section")
    jumps = []
    rate_exprs = []
    rate_lines = []
    for lineno, line in sections["jumps"]:
        if ":" not in line:
            raise ConfigError(f"jump line needs '<integers> : <rate>': {line!r}", line=lineno)
        vec_part, rate_part = line.split(":", 1)
        try:
            J = tuple(int(t) for t in vec_part.split())
        except ValueError:
            raise ConfigError(f"jump coordinates must be integers: {vec_part.strip()!r}", line=lineno) from None
        try:
            check_jump(d, J, jumps)
        except ConfigError as e:
            raise type(e)(e.args[0], line=lineno) from None
        try:
            node = ex.parse_expr(rate_part.strip(), d, params.keys())
        except ConfigError as e:
            # parse_expr's column is in the stripped rate; report it in the line as written
            raw = raws[lineno - 1]
            at = len(raw) - len(raw.lstrip()) + len(vec_part) + 1 + len(rate_part) - len(rate_part.lstrip())
            col = None if e.col is None else at + e.col
            raise type(e)(f"{e.args[0]} in rate for jump {J}", line=lineno, col=col) from None
        jumps.append(J)
        rate_exprs.append(node)
        rate_lines.append(lineno)

    if "domain" in sections:
        lower = [-math.inf] * d
        upper = [math.inf] * d
        for lineno, line in sections["domain"]:
            m = _DOMAIN_RE.match(line)
            if m is None:
                raise ConfigError(f"malformed domain line: {line!r}", line=lineno)
            i = int(m.group(1))
            if i > d:
                raise DimensionMismatchError(f"domain variable x{i} out of range", line=lineno)
            try:
                b = float(m.group(3))
            except ValueError:
                raise ConfigError(f"bad numeric bound {m.group(3)!r}", line=lineno) from None
            if m.group(2) == ">=":
                lower[i - 1] = max(lower[i - 1], b)
            else:
                upper[i - 1] = min(upper[i - 1], b)
        domain = Domain(lower=tuple(lower), upper=tuple(upper))
    else:
        domain = Domain.nonnegative_orthant(d)

    try:
        return Model(d=d, jumps=tuple(jumps), rate_exprs=tuple(rate_exprs), params=params, domain=domain, source=text)
    except ConfigError:  # a rate too deep to compile: compile each alone to name its jump and line
        for J, node, lineno in zip(jumps, rate_exprs, rate_lines):
            try:
                _kernel_code(d, params, (node,))
            except ConfigError as e:
                raise type(e)(f"{e.args[0]} in rate for jump {J}", line=lineno) from None
        raise


# A model's rates and rate gradients, generated once as Python source.  The
# scalar form is one function per entry, taking the d coordinates as floats:
# rate_entries[k](y0, ..) = r_k(y) and grad_entries[k * d + i](y0, ..) =
# d r_k / d y_i, so a division by zero names its entry.  The array forms take
# the coordinates in the last axis of Y: rates_array(Y)[..., k] and
# grads_array(Y)[..., k, i], stored jump-major.  J is the read-only float jump
# matrix, one row per jump, and rate_src the rates' source expressions, which
# the coupled-pair loop inlines.
Kernel = namedtuple("Kernel", "rates_array grads_array rate_entries grad_entries J rate_src")


def _kernel_code(d, params, rate_exprs):
    """The compiled kernel source of the rates ``rate_exprs``, and their source
    expressions: the only place rate code is generated.

    Parameter values are inlined and the source holds only arithmetic on the
    coordinates (the expression language is closed, so no user code reaches
    the exec).  Every form uses the tree's operation order, so all agree bit
    for bit with the tests' tree interpreter (``tests/expr_reference.py``).
    A rate that Python cannot compile raises ConfigError.
    """
    n, args = len(rate_exprs), ", ".join(f"y{i}" for i in range(d))
    try:  # every node is parenthesized, and codegen recurses
        rates = [ex.codegen(r, params) for r in rate_exprs]
        grads = [ex.codegen(ex.differentiate(r, i), params) for r in rate_exprs for i in range(d)]
        src = []
        for name, exprs, shape in (("rate", rates, (n,)), ("grad", grads, (n, d))):
            src += [
                f"{name}_entries = ({''.join(f'lambda {args}: {e}, ' for e in exprs)})",
                f"def {name}s_array(Y):",
                *(f"    y{i} = Y[..., {i}]" for i in range(d)),
                f"    out = np.empty({shape} + Y.shape[:-1])",
                *(f"    out[{', '.join(map(str, i))}] = {e}" for i, e in zip(np.ndindex(shape), exprs)),
                f"    return out.transpose((*range({len(shape)}, out.ndim), *{tuple(range(len(shape)))}))",
            ]
        return compile("\n".join(src), "<kernel>", "exec"), rates
    except (SyntaxError, RecursionError) as e:
        raise ConfigError(f"a rate is nested too deeply to compile: {getattr(e, 'msg', e)}") from None


def _compile_kernel(m):
    """The ``Kernel`` of model ``m``, built when the model is built or unpickled."""
    code, rates = _kernel_code(m.d, m.params, m.rate_exprs)
    ns = {"np": np, "inf": math.inf, "nan": math.nan}
    exec(code, ns)  # noqa: S102 - source generated from closed AST
    J = np.array(m.jumps, dtype=np.int64).astype(float)
    J.setflags(write=False)
    return Kernel(*(ns[name] for name in Kernel._fields[:-2]), J, tuple(rates))


def _point(m, y, check_domain):
    """``y`` as a list of d floats, after the shape and domain checks."""
    y = np.asarray(y, dtype=float)
    if y.shape != (m.d,):
        raise DimensionMismatchError(f"point has shape {y.shape}, expected ({m.d},)")
    if check_domain and not m.domain.contains(y):
        raise DomainError(f"point {y.tolist()} outside domain")
    return y.tolist()


def eval_rates(m, y, check_domain=True):
    """Rate vector (one entry per jump) at scaled state ``y``.

    The rates are evaluated and checked one at a time in jump order, so the
    RateError names the first that divides by zero, is not finite or is
    negative.
    """
    y = _point(m, y, check_domain)
    r = []
    for k, rate in enumerate(m.kernel.rate_entries):
        try:
            v = rate(*y)
        except ZeroDivisionError:
            raise RateError(f"division by zero in rate {k} at {y}") from None
        if not math.isfinite(v):
            raise RateError(f"non-finite rate {k} at {y}")
        if v < 0:
            raise RateError(f"negative rate {v} for jump {m.jumps[k]} at {y}")
        r.append(v)
    return np.array(r)


def domain_exits(m, c):
    """The jumps that can carry the chain out of the domain, one message per
    jump and finite face it points out through: a jump that crosses the face
    by two or more lattice steps (the rate cannot vanish on every lattice
    point it leaves from), or by one step at a rate that does not vanish at
    ``c`` projected onto the face."""
    found = []
    for J, rate in zip(m.jumps, m.kernel.rate_entries):
        for i, step in enumerate(J):
            for bound, out, op in ((m.domain.lower[i], -step, ">="), (m.domain.upper[i], step, "<=")):
                if out < 1 or not math.isfinite(bound):
                    continue
                face = f"x{i + 1} {op} {bound:g}"
                y = [*c[:i], bound, *c[i + 1 :]]
                if out > 1:
                    found.append(f"jump {J} crosses the face {face} by {out} lattice steps")
                    continue
                try:
                    v = rate(*y)
                except ZeroDivisionError:
                    v = math.nan
                if v != 0:
                    found.append(f"jump {J} leaves through the face {face} at rate {v:g} at {y}")
    return found


def eval_drift(m, y, check_domain=True):
    """Drift F(y) = sum_J J r_J(y)."""
    return m.kernel.J.T @ eval_rates(m, y, check_domain=check_domain)


def _gradients(m, y):
    """Rate gradients at the coordinate list ``y``, shape (n_jumps, d)."""
    n = len(m.jumps)
    return np.array([_partial(m, k, i, y) for k in range(n) for i in range(m.d)]).reshape(n, m.d)


def _partial(m, k, i, y, h=1e-6):
    """d r_k / d y_i; central differences of r_k where the symbolic
    derivative divides by zero at ``y``."""
    try:
        return m.kernel.grad_entries[k * m.d + i](*y)
    except ZeroDivisionError:
        pass
    yp, ym = list(y), list(y)
    yp[i] += h
    ym[i] -= h
    rate = m.kernel.rate_entries[k]
    try:
        return (rate(*yp) - rate(*ym)) / (2 * h)
    except ZeroDivisionError:
        raise RateError(f"division by zero differentiating rate at {y}") from None


def eval_jacobian(m, y, check_domain=True):
    """Jacobian sum_J J grad r_J(y) from the generated rate gradients.

    A gradient entry whose symbolic form divides by zero at ``y`` falls back
    to central finite differences of its rate.
    """
    G = _gradients(m, _point(m, y, check_domain))
    A = np.zeros((m.d, m.d))
    # one jump at a time: a single J.T @ G sums in another order
    for Jk, gk in zip(m.kernel.J, G):
        A += np.outer(Jk, gk)
    return A


def rate_gradients(m, y):
    """Gradient row vectors of every rate at ``y``, shape (n_jumps, d)."""
    return _gradients(m, np.asarray(y, dtype=float).tolist())


_HAMER_SIR_TEMPLATE = """\
# Hamer-type SIR with immigration of susceptibles
[dimension]
2
[params]
alpha = {alpha!r}
beta = {beta!r}
gamma = {gamma!r}
[jumps]
-1  1 : alpha * x1 * x2
 1  0 : beta
 0 -1 : gamma * x2
[domain]
x1 >= 0
x2 >= 0
"""


def builtin_hamer_sir(alpha, beta, gamma):
    """The built-in two-type epidemic: infection, immigration, recovery.

    Rates alpha*x1*x2, beta, gamma*x2 with jumps (-1,1), (1,0), (0,-1);
    the drift fixed point is (gamma/alpha, beta/gamma).
    """
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (v > 0):
            raise ValueError(f"{name} must be positive, got {v}")
    return parse_model(_HAMER_SIR_TEMPLATE.format(alpha=float(alpha), beta=float(beta), gamma=float(gamma)))
