"""The README's code blocks run as written."""

from pathlib import Path

from qimcf import parse_config

ROOT = Path(__file__).resolve().parent.parent


def readme_section(heading):
    """Text of the README from a "## heading" line to the next one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def fenced_blocks(section, info=""):
    """Contents of the ``` blocks of section opened as ```info."""
    parts = section.split("```")
    return [body[len(info) + 1:] for body in parts[1::2]
            if body.split("\n", 1)[0] == info]


def test_examples_cfg_is_the_readme_config_block():
    block, = fenced_blocks(readme_section("Config format"))
    text = (ROOT / "examples.cfg").read_text(encoding="utf-8")
    assert text == block
    cfg = parse_config(text)
    assert (cfg.n, cfg.grid_points, cfg.initial_kind) == (2, 256, "bump")
    assert (cfg.t_end, cfg.cfl_safety, cfg.snapshot_every) == (40.0, 0.8, 0.5)


def test_readme_flow_snippet_runs(tmp_path, monkeypatch, capsys):
    # the "below the harness" block, verbatim, writes nothing to disk
    _, below_harness = fenced_blocks(readme_section("Library use"), "python")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(below_harness, "README.md", "exec"), namespace)
    final, records = namespace["final"], namespace["records"]
    assert final.t == 40.0
    assert records[-1].t == 40.0 and len(records) == 81
    assert capsys.readouterr().out.startswith("40.0 ")
    assert list(tmp_path.iterdir()) == []
