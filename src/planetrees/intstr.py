"""Decimal text for integers of any size.

CPython 3.11 and later refuse ``str(x)`` past a digit limit (4300 by
default, ``sys.set_int_max_str_digits``) as a guard against quadratic-time
conversions.  Counts here routinely pass it, so a conversion that would hit
the limit is split at a power of ten into pieces that stay under it.  The
process-wide limit itself is left as the caller set it.
"""

from __future__ import annotations


def int_to_str(value: int) -> str:
    """Decimal text of ``value``, however many digits it has."""
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + int_to_str(-value)
    # about half of the decimal digits (log10(2) > 0.3)
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return int_to_str(high) + int_to_str(low).zfill(half)

