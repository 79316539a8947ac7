"""Runtime configuration: problem.input parsing and run options.

The parameter file format is ``key = value`` lines with ``#`` comments,
optional trailing ``;``, and comma lists with or without brackets, e.g.::

    tend = 1
    dt = 0.005;
    x_up = 100.0, 100.0
    vertex_properties = ["state"]

Every key is available as a document-parameter override; a handful of
keys (dt, cells, seed, output_interval, max_steps, ...) also steer the
runtimes directly.
"""

from __future__ import annotations

from pathlib import Path


class ParamError(Exception):
    pass


_ALIASES = {"tend": "t_end", "outputdir": "output_dir", "output_every": "output_interval"}


def _parse_scalar(token):
    token = token.strip().strip("'\"")
    if not token:
        return ""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_input_text(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().rstrip(";").strip()
        if not key:
            raise ParamError(f"line {lineno}: empty key")
        key = _ALIASES.get(key.lower(), key)
        bracketed = value.startswith("[") and value.endswith("]")
        if bracketed:
            value = value[1:-1]
        if bracketed or "," in value:
            values[key] = [_parse_scalar(t) for t in value.split(",") if t.strip() != ""]
        else:
            values[key] = _parse_scalar(value)
    return values


def parse_input_file(path):
    return parse_input_text(Path(path).read_text(encoding="utf-8"))


class RunConfig:
    """Merged runtime options: parameter file values plus CLI overrides."""

    def __init__(self, values=None, output_dir=None, seed=None):
        self.values = dict(values or {})
        if output_dir is not None:
            self.values["output_dir"] = str(output_dir)
        if seed is not None:
            self.values["seed"] = int(seed)

    def get(self, key, default=None):
        return self.values.get(key, default)

    @property
    def scalar_overrides(self):
        """Numeric scalars usable as document-parameter overrides."""
        return {k: v for k, v in self.values.items() if isinstance(v, (int, float))}

    @property
    def dt(self):
        return self.values.get("dt")

    @property
    def seed(self):
        return int(self.values.get("seed", 0))

    @property
    def output_dir(self):
        return Path(self.values.get("output_dir", "outputDir"))

    @property
    def output_interval(self):
        return int(self.values.get("output_interval", 20))

    @property
    def max_steps(self):
        return int(self.values.get("max_steps", 10_000_000))

    def cells(self, ndim, default=100):
        raw = self.values.get("cells", default)
        if isinstance(raw, list):
            if len(raw) != ndim:
                raise ParamError(f"'cells' needs {ndim} entries, got {len(raw)}")
            return [int(x) for x in raw]
        return [int(raw)] * ndim
