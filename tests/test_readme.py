"""README's examples run, and README names only what exists.

Each `cqcap ...` line of the CLI block runs through `cqcap.cli.main`, and
every CSV it writes starts with the header that "Output formats" gives; the
"Full-size experiments" block is only parsed. Outside "Removed names" no
name is private, and every backticked dotted name under `cqcap` or one of
its modules resolves. "Removed names" lists every name that
`tests/test_trace_hooks.py` keeps out of the package."""

import importlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import numpy as np

import cqcap
from cqcap.cli import build_parser, load_channel_file, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
DOTTED = re.compile(r"(?<![\w.])(?:cqcap|solver|qinfo|bloch|bench|cli)(?:\.\w+)+")
PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def _sections(text: str) -> dict:
    # the text under each heading up to the next one; a line that starts
    # with # inside a code block is not a heading
    sections, title, fenced = {}, None, False
    for line in text.splitlines(keepends=True):
        fenced ^= line.startswith("```")
        if line.startswith("#") and not fenced:
            title = line.lstrip("#").strip()
            sections[title] = ""
        elif title is not None:
            sections[title] += line
    return sections


SECTIONS = _sections(README)
OUTSIDE_REMOVED_NAMES = README.replace(SECTIONS["Removed names"], "")


def _block(section: str, lang: str) -> str:
    (code,) = [code for kind, code in FENCE.findall(SECTIONS[section]) if kind == lang]
    return code


def _commands(section: str) -> list:
    return [shlex.split(line)[1:] for line in _block(section, "sh").splitlines()
            if line.startswith("cqcap ")]


def test_the_cli_examples_run(tmp_path, monkeypatch, capsys):
    formats = SECTIONS["Output formats"]
    headers = {(command, option): header for command, option, header in re.findall(
        r"^- `(\w+) (--[\w-]+)`: `([^`]+)`", formats, re.M)}
    (json_keys,) = [set(re.findall(r"`(\w+)`", item)) for item in formats.split("\n- ")
                    if item.startswith("`capacity --format json`")]
    commands = _commands("CLI")
    assert {args[0] for args in commands} == {"capacity", "approx", "sweep", "bench"}
    monkeypatch.chdir(tmp_path)
    checked = set()
    for args in commands:
        args = [str(ROOT / arg) if arg.startswith("channels/") else arg for arg in args]
        capsys.readouterr()
        assert main(args) == 0, args
        if "json" in args:
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) | set(payload["history"][0]) <= json_keys
        for option, path in zip(args, args[1:]):
            if option in ("--out", "--range-out"):
                header = (tmp_path / path).read_text().splitlines()[0]
                assert header == headers[args[0], option], (args[0], option)
                checked.add((args[0], option))
    assert checked == set(headers)


def test_the_full_size_commands_parse():
    commands = _commands("Full-size experiments")
    assert [args[0] for args in commands] == ["sweep", "bench"]
    for args in commands:
        assert build_parser().parse_args(args).command == args[0]


def test_the_channel_file_and_python_examples_run(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(_block("Channel file format", "json"))
    z_channel = load_channel_file(ROOT / "channels" / "z_channel.json")
    assert np.array_equal(load_channel_file(path).states, z_channel.states)
    exec(_block("Library", "python"), {})


def test_readme_names_only_what_exists():
    assert PRIVATE.findall(OUTSIDE_REMOVED_NAMES) == []
    spans = re.findall(r"`([^`]+)`", FENCE.sub("", OUTSIDE_REMOVED_NAMES))
    names = {name for span in spans for name in DOTTED.findall(span)}
    assert len(names) > 30
    for name in sorted(names):
        first, *rest = name.split(".")
        owner = cqcap if first == "cqcap" else importlib.import_module(f"cqcap.{first}")
        for part in rest:
            assert not part.startswith("_"), name
            assert hasattr(owner, part), f"README names {name}: no attribute {part!r}"
            owner = getattr(owner, part)


def test_every_exported_name_is_in_the_readme():
    spans = " ".join(re.findall(r"`([^`]+)`", FENCE.sub("", OUTSIDE_REMOVED_NAMES)))
    assert [name for name in cqcap.__all__ if not re.search(rf"cqcap\.{name}\b", spans)] == []


def test_removed_names_lists_every_guarded_name():
    spec = importlib.util.spec_from_file_location(
        "trace_hooks", Path(__file__).with_name("test_trace_hooks.py"))
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    listed = set(re.findall(r"`([^`]+)`", SECTIONS["Removed names"]))
    assert hooks.REMOVED
    for module, name in hooks.REMOVED:
        full = f"{module}.{name}"
        assert {full, full.removeprefix("cqcap.")} & listed, full
