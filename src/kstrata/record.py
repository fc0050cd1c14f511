"""Frozen value records: the base of the package's result and descriptor types.

``Record`` does what ``@dataclass(frozen=True)`` did for these types
without importing ``dataclasses``, which loads ``inspect``, ``ast`` and
``dis`` and was the largest import of a one-shot command.  A subclass
names its fields as annotations, in order: every annotated name is a
field, and a class attribute without an annotation is not one.  A field's
default is the class attribute of the same name.  When the subclass is
created, ``Record`` compiles its ``__init__``, ``__repr__``, ``__eq__`` and
``__hash__`` over those fields, each one unless the class body defines it.
The methods are written out field by field, as dataclasses writes them,
because the batch classifier hashes report bodies on its hot path.

As with dataclasses: ``__init__`` calls ``__post_init__`` when the class
has one, ``repr`` is ``Name(field=value, ...)``, two records are equal when
they have the same class and equal fields, and assigning or deleting an
attribute raises ``AttributeError``.  Fields live in the instance
``__dict__``, so ``vars(record)`` maps field names to values in order.
"""


class Record:
    """Base of a frozen record type; see the module docstring."""

    _fields = ()  # the field names, in order

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields + tuple(vars(cls).get("__annotations__", {}))
        has_default = [hasattr(cls, name) for name in fields]
        if has_default != sorted(has_default):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        defaults = tuple(getattr(cls, name) for name in fields[has_default.count(False):])
        cls._fields = fields
        values = "".join(f"self.{name}," for name in fields)
        others = "".join(f"other.{name}," for name in fields)
        shown = ", ".join(f"{name}={{self.{name}!r}}" for name in fields)
        stores = "".join(f"\n    __d[{name!r}] = {name}" for name in fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        source = f"""
def __init__(self, {", ".join(fields)}):
    __d = self.__dict__{stores}{post}

def __repr__(self):
    return f"{{self.__class__.__qualname__}}({shown})"

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({values}) == ({others})
    return NotImplemented

def __hash__(self):
    return hash(({values}))
"""
        namespace = {"__name__": cls.__module__}
        exec(source, namespace)
        namespace["__init__"].__defaults__ = defaults or None
        for name in ("__init__", "__repr__", "__eq__", "__hash__"):
            if name not in vars(cls):
                method = namespace[name]
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
