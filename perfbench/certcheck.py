"""Independent re-checks of koszulkit outputs, made from their JSON alone.

Nothing here imports koszulkit.  The arithmetic over Z and over F_p[x]
is written out again so that a defect shared by the library and its own
``SnfCertificate.verify`` cannot pass unnoticed.  Polynomials are
little-endian coefficient lists with no trailing zeros, as on the wire.
"""

from __future__ import annotations


class IntArith:
    token = "Z"
    zero = 0
    one = 1

    def parse(self, data):
        if isinstance(data, bool) or not isinstance(data, (int, str)):
            raise ValueError(f"bad integer {data!r}")
        return int(data)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div_exact(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division")
        return q

    def size(self, a) -> int:
        """|a| -- equal sizes of two nonzero values mean a unit ratio."""
        return abs(a)

    def is_canonical(self, a) -> bool:
        return a > 0

    def divides(self, a, b) -> bool:
        return b % a == 0


class PolyArith:
    """Univariate polynomials over F_p."""

    zero = ()
    one = (1,)

    def __init__(self, p: int):
        self.p = p
        self.token = f"fpx:{p}"

    @staticmethod
    def _trim(c: list) -> tuple:
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def parse(self, data):
        if not isinstance(data, list) or any(type(c) is not int or not 0 <= c < self.p for c in data):
            raise ValueError(f"bad polynomial {data!r}")
        if data and data[-1] == 0:
            raise ValueError("polynomial with a zero leading coefficient")
        return tuple(data)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return self._trim(out)

    def sub(self, a, b):
        return self.add(a, tuple((-c) % self.p for c in b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return self._trim(out)

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(a)
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        quot = [0] * max(len(a) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q = c * inv % p
                quot[i - db] = q
                for j, y in enumerate(b):
                    rem[i - db + j] = (rem[i - db + j] - q * y) % p
        return self._trim(quot), self._trim(rem)

    def div_exact(self, a, b):
        q, r = self.divmod(a, b)
        if r:
            raise ArithmeticError("inexact division")
        return q

    def size(self, a) -> int:
        """Degree + 1 -- equal sizes of two nonzero values mean a unit ratio."""
        return len(a)

    def is_canonical(self, a) -> bool:
        return bool(a) and a[-1] == 1

    def divides(self, a, b) -> bool:
        return not self.divmod(b, a)[1]

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        if not a:
            return a
        inv = pow(a[-1], -1, self.p)
        return tuple(c * inv % self.p for c in a)

    def powmod(self, base, exponent: int, modulus):
        result, base = self.one, self.divmod(base, modulus)[1]
        while exponent:
            if exponent & 1:
                result = self.divmod(self.mul(result, base), modulus)[1]
            base = self.divmod(self.mul(base, base), modulus)[1]
            exponent >>= 1
        return result


def arith_for(token: str):
    if token == "Z":
        return IntArith()
    if token.startswith("fpx:"):
        return PolyArith(int(token[4:]))
    raise ValueError(f"unknown ring token {token!r}")


def parse_matrix(arith, data) -> list:
    rows, cols = data["rows"], data["cols"]
    entries = [[arith.parse(x) for x in row] for row in data["entries"]]
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError("matrix shape does not match its entries")
    return entries


def matmul(arith, a: list, b: list, inner: int) -> list:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = arith.zero
            for k in range(inner):
                if row[k] != arith.zero and b[k][j] != arith.zero:
                    acc = arith.add(acc, arith.mul(row[k], b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def det(arith, m: list):
    """Bareiss fraction-free determinant of a square matrix."""
    n = len(m)
    if n == 0:
        return arith.one
    a = [list(row) for row in m]
    sign = False
    prev = arith.one
    for k in range(n - 1):
        if a[k][k] == arith.zero:
            swap = next((i for i in range(k + 1, n) if a[i][k] != arith.zero), None)
            if swap is None:
                return arith.zero
            a[k], a[swap] = a[swap], a[k]
            sign = not sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = arith.sub(arith.mul(a[i][j], a[k][k]), arith.mul(a[i][k], a[k][j]))
                a[i][j] = arith.div_exact(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return arith.sub(arith.zero, d) if sign else d


def _is_unit(arith, x) -> bool:
    return x != arith.zero and arith.size(x) == arith.size(arith.one)


def check_snf_certificate(token: str, source: dict, cert: dict):
    """Re-verify an emitted SNF certificate against the matrix it came from.

    Returns None when U*A*V == D, det U and det V are units, D is
    diagonal and its nonzero diagonal is the emitted divisor list, a
    divisibility chain of canonical associates; otherwise a reason.
    """
    arith = arith_for(token)
    a = parse_matrix(arith, source)
    u, d, v = (parse_matrix(arith, cert[key]) for key in ("U", "D", "V"))
    m, n = source["rows"], source["cols"]
    if (cert["U"]["rows"], cert["U"]["cols"], cert["V"]["rows"], cert["V"]["cols"]) != (m, m, n, n):
        return "U or V has the wrong shape"
    if (cert["D"]["rows"], cert["D"]["cols"]) != (m, n):
        return "D has the wrong shape"
    if matmul(arith, matmul(arith, u, a, m), v, n) != d:
        return "U*A*V != D"
    if any(d[i][j] != arith.zero for i in range(m) for j in range(n) if i != j):
        return "D is not diagonal"
    divisors = [arith.parse(x) for x in cert["divisors"]]
    diag = [d[i][i] for i in range(min(m, n))]
    if diag[: len(divisors)] != divisors or any(x != arith.zero for x in diag[len(divisors):]):
        return "diagonal of D differs from the divisor list"
    if any(not arith.is_canonical(x) for x in divisors):
        return "a divisor is not a canonical associate"
    if any(not arith.divides(x, y) for x, y in zip(divisors, divisors[1:])):
        return "divisors do not form a divisibility chain"
    # det(U) det(A) det(V) == det(D) holds exactly once U*A*V == D, so for
    # a nonsingular square A, equal sizes of det(D) and det(A) force
    # det(U) det(V), and hence each factor, to be a unit.
    if m == n:
        det_a = det(arith, a)
        if det_a != arith.zero:
            det_d = arith.one
            for x in diag:
                det_d = arith.mul(det_d, x)
            if det_d == arith.zero or arith.size(det_d) != arith.size(det_a):
                return "det U * det V is not a unit"
            return None
    if not (_is_unit(arith, det(arith, u)) and _is_unit(arith, det(arith, v))):
        return "U or V is not unimodular"
    return None


def sympy_invariant_factors(source: dict) -> list:
    """Nonzero invariant factors over Z, as positive ints, from sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    entries = [[int(x) for x in row] for row in source["entries"]]
    factors = invariant_factors(Matrix(entries), domain=ZZ)
    return [abs(int(f)) for f in factors if f != 0]
