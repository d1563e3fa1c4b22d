import importlib
import importlib.resources
import json
import pkgutil

import gpmaps
from gpmaps import cli


def test_exports_and_schema_enums_match_the_code():
    # every exported name exists, so a deletion cannot leave a stale export
    for info in pkgutil.iter_modules(gpmaps.__path__):
        module = importlib.import_module(f"gpmaps.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"gpmaps.{info.name}.__all__ names missing attributes: {missing}"

    # the schemas list the experiments the CLI runs, plus the table1 command
    expected = [*cli.EXPERIMENTS, "table1"]
    for name in ("config.schema.json", "summary.schema.json"):
        schema = json.loads((importlib.resources.files("gpmaps") / "schemas" / name).read_text())
        assert schema["properties"]["experiment"]["enum"] == expected, name
