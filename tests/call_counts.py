"""Counts of entries into named functions, whatever name a caller used.

A count pin that patches a module attribute goes blind when the code
under test calls the function through another name, an alias import or a
table built at import time.  `CallCounts` profiles instead: it matches
each entered frame on the function's code object, so every path into the
function counts, and it fails at once when a named function does not exist.
"""

import inspect
import sys
from collections import Counter

# a generator or coroutine frame is entered again at each resumption
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class CallCounts(Counter):
    """Counter of entries into functions, keyed by attribute name.

    Give (owner, name) pairs, a module or a class and the attribute name of a
    function, method or static method on it; entries are counted while the
    `with` block runs.  Two owners may give one name, such as `floor_ceil` on
    two classes: their entries add up under that name.
    """

    def __init__(self, *targets: tuple[object, str]):
        super().__init__()
        self._codes = {}
        for owner, name in targets:
            function = inspect.getattr_static(owner, name)  # AttributeError if it is gone
            function = getattr(function, "__func__", function)  # staticmethod, classmethod
            code = function.__code__
            if code.co_flags & _RESUMABLE:
                raise TypeError(f"{name} is resumable, so its entries would overcount")
            self._codes[code] = name

    def _profile(self, frame, event, arg):
        if event == "call":
            name = self._codes.get(frame.f_code)
            if name is not None:
                self[name] += 1

    def __enter__(self) -> "CallCounts":
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)
