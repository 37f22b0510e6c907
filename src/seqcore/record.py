"""Record classes: a class body of annotated fields, with its methods made.

``record`` turns a class whose body annotates its fields, defaults last,
into a slotted class with ``__init__``, ``__eq__``, ``__hash__``,
``__repr__`` and ``__match_args__``.  They behave as the standard library's
frozen data classes do, but the four methods come from one ``exec``: a
fraction of what that module spends per class, and it is not imported (it
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``).

* Every record is frozen: it hashes its fields and refuses assignment and
  deletion.
* ``==`` compares the fields of two instances of the same class; against
  any other class it returns ``NotImplemented``.
* A field whose name starts with ``_`` is keyword-only and left out of
  ``==``, the hash, ``repr`` and ``__match_args__``; such fields come last.
* A ``__post_init__`` method runs after the fields are set.
"""

from __future__ import annotations

__all__ = ["record"]

# Generated source -> its code.  Records with the same field names and
# defaults share one source; its values differ in each class's namespace.
_compiled: dict = {}


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Declare ``cls`` a record."""
    ns = dict(cls.__dict__)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {f: ns.pop(f) for f in fields if f in ns}
    shown = tuple(f for f in fields if not f.startswith("_"))
    ns["__slots__"] = fields
    ns["__match_args__"] = shown
    ns["__qualname__"] = cls.__qualname__
    new = type(cls)(cls.__name__, cls.__bases__, ns)

    env = {}
    params, sets = [], []
    for f in fields:
        if f.startswith("_") and "*" not in params:
            params.append("*")
        if f in defaults:
            env[f"_d_{f}"] = defaults[f]
            params.append(f"{f}=_d_{f}")
        else:
            params.append(f)
        env[f"_s_{f}"] = getattr(new, f).__set__
        sets.append(f"  _s_{f}(self, {f})\n")
    if "__post_init__" in ns:
        sets.append("  self.__post_init__()\n")
    mine = "".join(f"self.{f}," for f in shown)
    theirs = "".join(f"other.{f}," for f in shown)
    shows = ", ".join(f"{f}={{self.{f}!r}}" for f in shown)
    src = (f"def __init__(self, {', '.join(params)}):\n"
           f"{''.join(sets) or '  pass'}\n"
           f"def __eq__(self, other):\n"
           f"  if other.__class__ is self.__class__:\n"
           f"    return ({mine})==({theirs})\n"
           f"  return NotImplemented\n"
           f"def __hash__(self):\n"
           f"  return hash(({mine}))\n"
           f"def __repr__(self):\n"
           f"  return self.__class__.__qualname__ + f\"({shows})\"\n")
    code = _compiled.get(src)
    if code is None:
        code = _compiled[src] = compile(src, "<record>", "exec")
    exec(code, env)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        setattr(new, name, env[name])
    new.__setattr__, new.__delattr__ = _refuse_set, _refuse_del
    return new
