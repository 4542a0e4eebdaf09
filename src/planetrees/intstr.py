"""Decimal text for integers of any size.

CPython 3.11 and later refuse ``str(x)`` and ``int(text)`` past a digit
limit (4300 by default, ``sys.set_int_max_str_digits``) as a guard against
quadratic-time conversions.  Counts here routinely pass it, so conversions
that would hit the limit are split at a power of ten into pieces that stay
under it.  The process-wide limit itself is left as the caller set it.
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


def str_to_int(text: str) -> int:
    """Integer value of decimal text, however many digits it has.

    Decimal text is a ``str`` of an optional sign and ASCII digits, nothing
    else: no whitespace, underscores or other scripts' digits, which
    ``int`` would accept.  Raises ValueError on anything else.
    """
    digits = text[1:] if isinstance(text, str) and text.startswith(("+", "-")) else text
    if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected decimal text, got {text!r}")
    value = _digits_to_int(digits)
    return -value if text[0] == "-" else value


def _digits_to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the digit limit
        pass
    half = len(digits) // 2
    return _digits_to_int(digits[:-half]) * 10**half + _digits_to_int(digits[-half:])
