import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}",
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_recipe_prints_its_three_digests(capsys):
    # the gate digests' recipe at a tiny size: 189 files, and the same engine
    # digest on the compiled loop and on the numpy loop
    digests = _load("digests")
    assert digests.main(["--steps", "200", "--stride", "100",
                         "--engine-steps", "30", "--wide-steps", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    found = [re.match(r"(files|engine c|engine numpy) +([0-9a-f]{64})\b", line)
             for line in lines]
    assert [m.group(1) for m in found] == ["files", "engine c", "engine numpy"]
    assert "(189 files" in lines[0]
    assert found[1].group(2) == found[2].group(2)
