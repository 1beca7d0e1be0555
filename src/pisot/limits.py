"""Every cap that refuses an input or bounds the work on one, in one table.

A refused input is a usage error (exit 2) decided before the work it would
cost, so each cap sits where the cost grows past what a command-line request
should take. The timings beside each cap are those that sized it. The
`*_CHARS` caps bound the text that `int()`, `Fraction()` or `Decimal()`
would read, whose time is quadratic in the digits once `cli.run` lifts the
int->str digit limit; each derives from the cap on the value it reads.
This module imports nothing from the package, so every module can read it.
"""

# The largest n that `pow`, `slp emit` and -m take, and its length.
MAX_N = 10**19
MAX_N_CHARS = len(str(MAX_N))
# The largest n that `pow` computes exactly: the answer has on the order of
# n*log2(alpha) bits; above it `pow` needs -m.
MAX_EXACT_N = 10**6
# The largest field degree k that `find`, `verify` and `bound --degree` take
# on the command line, and the largest exponent of a `--minpoly`; above it
# they are usage errors, decided before any embedding is computed. `find` at
# epsilon 1 takes at most 24.1 s in a fresh process on a 2-CPU host with
# Python 3.11, over three runs of each conductor of degree 68 to 75 (16
# conductors, 151 the slowest); at k = 78 conductor 169 takes 31 s. No
# conductor gives k = 76 or 77.
MAX_SEARCH_DEGREE = 75
# The most significant digits of a `--minpoly` coefficient, refused before
# int() reads them. Every polynomial that `find` prints stays accepted: the
# largest known, the minpoly of conductor 41 at epsilon 1e-100, has
# coefficients of about 1,930 digits. At this cap, `threshold` on x^2 - cx - 1
# and x^3 - cx^2 - x - 1 with c = 10^10000 - 1 ends in 0.18 and 15.3 s
# (PrecisionExhausted at MAX_WORK_BITS) in a fresh process on a 2-CPU host,
# and from 300 to 5,000 digits in 0.08 to 10.9 s, all of it root isolation.
# At 3*10^4 digits they took 9.5 and 87 s beside another process, and an
# earlier version took over 100 s on x^2 - cx - 1 at 10^5 digits. The cap
# bounds the coefficient's length only.
MAX_COEFFICIENT_DIGITS = 10_000
# `bound` raises delta's denominator to the power degree - 1, so its cost
# grows with the denominator's digits: at this cap, --delta 1e-1000 at degree
# MAX_SEARCH_DEGREE takes about 0.3 s in a fresh process on a 2-CPU host,
# where 1e-30000 would take minutes. The text cap fits "num/den" with the
# denominator at the cap.
MAX_DELTA_DIGITS = 1000
MAX_DELTA_CHARS = 2 * MAX_DELTA_DIGITS + 2
# `find` scales its lattice by P ~ 1/epsilon^k, so its entries grow by k
# bits per bit of 1/epsilon. At this cap, `find --epsilon 1e-100` takes 0.2 to
# 2.0 s at k = 2 ... 12 (conductors 5 to 35) in a fresh process on a 2-CPU
# host, where 1e-150 takes 22 s at k = 8 and 1e-1000 54 s at k = 3.
MAX_EPSILON_DIGITS = 100
MAX_EPSILON_CHARS = 2 * MAX_EPSILON_DIGITS + 2
# Above k = 20 that cap does not bound `find`: conductor 61 (k = 30) at
# 1e-100 takes 92 s. So `find` also takes epsilon >= 2^-b only where
# k^4 * b <= MAX_FIND_SIZE, decided from k before any embedding. Along that
# boundary the slowest of three fresh-process runs on the same host takes
# 8 to 17 s at k = 30 ... 68 (conductors 61, 83, 101, 113, 127, 137). The
# constant is 2 * 75^4, so that epsilon = 1/4 stays accepted up to
# MAX_SEARCH_DEGREE; there conductors 149 and 151 take up to 27 and 32 s.
MAX_FIND_SIZE = 63_281_250
# Every conductor above 630 gives a degree above MAX_SEARCH_DEGREE, which
# `cli._degree_capped` refuses at once; this cap only bounds int().
MAX_CONDUCTOR_CHARS = 100
# `bound` prints --disc in full with --json, and multiplies it by
# delta^(2 - 2 degree): at this cap, `bound --degree 75 --delta 1e-1000
# --json` takes 0.13 s in process on a 2-CPU host, and 0.53 s at 10^5 digits.
# The text cap leaves room for a sign.
MAX_DISC_DIGITS = 10_000
MAX_DISC_CHARS = MAX_DISC_DIGITS + 1
# The one cap on working precision: root isolation and embeddings refuse a
# request above it, and `roots.root_layouts` stops there; either raises
# PrecisionExhausted, naming the bits.
MAX_WORK_BITS = 1 << 15
# The longest integer that a field file may hold, in characters. A field's
# discriminant at the degrees that `find` takes has a few hundred digits.
MAX_FIELD_INT_CHARS = 4300
# The longest decimal entry of an explicit field, in characters, checked
# before the entry is read. 2^-MAX_WORK_BITS is about 10^-9865, so no
# precision that the embeddings take uses more than about 9,900 significant
# digits of an entry; the rest leaves room for a sign, a point and an
# exponent.
MAX_FIELD_ENTRY_CHARS = 10_000
# The largest threshold n0 that `analyze_minpoly` certifies: it searches n up
# to here, and a second root with (d-1)*|alpha_2|^THRESHOLD_CAP >= 1/2 is
# refused at any precision.
THRESHOLD_CAP = 99999
