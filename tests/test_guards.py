"""Guards on names and examples that live outside the test suite: the
benchmark's trace layers and the README's code blocks."""

import importlib
import importlib.util
import re
import shlex
from pathlib import Path

from jachalf.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _spans_layers():
    """LAYERS as perfbench/spans.py defines it, read from that file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_traced_layer_resolves():
    """Each name the trace wraps exists where the wrapper looks for it: a
    func in its module's namespace, a method in its class __dict__."""
    missing = []
    for metric, where in _spans_layers().items():
        module = importlib.import_module(where[1])
        if where[0] == "func":
            attrs = (where[2],) if isinstance(where[2], str) else where[2]
            missing += [(metric, a) for a in attrs if a not in vars(module)]
        else:
            cls = vars(module).get(where[2])
            if cls is None:
                missing.append((metric, where[2]))
                continue
            missing += [(metric, a) for a in where[3] if a not in cls.__dict__]
    assert not missing


def test_readme_python_blocks_run():
    """The README's python blocks run in order in one namespace."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """The README's sh block of jachalf commands runs in an empty directory:
    its heredocs write the input files, and each jachalf line exits 0 and
    writes output."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    blocks = [b for b in blocks if re.search(r"^jachalf ", b, flags=re.M)]
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        for name, body in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, flags=re.S | re.M):
            (tmp_path / name).write_text(body)
        for line in re.findall(r"^jachalf (.*)$", block, flags=re.M):
            code = main(shlex.split(line, comments=True))
            out = capsys.readouterr().out
            assert code == 0 and out, line
