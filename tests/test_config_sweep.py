"""The config-file half of the exit-code contract: whatever a --config file
holds, every command ends in a documented exit code, never an exception.

Hypothesis draws files of several key=value lines: the keys of every
command (one file may serve several), repeated keys, unknown keys, and as
values each flag's `SWEEP_VALUES` or a value its flag accepts, with blank
lines, comments and spaces around the '='.  Each command runs in process
on a test8 trace, as `test_flag_value_sweep` runs it, and a failure must
be one stderr line with no `warning:` line on stdout.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from kpsca import cli

from test_cli import CONFIG_TEXTS, SWEEP_ARGS, SWEEP_VALUES, sweep_argv

DOCUMENTED = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_SEGMENTATION)
# keys no file may set: misspelt, --config and --suspects themselves, and no key at all
UNKNOWN_KEYS = ("nosie_sigma", "config", "suspects", "help", "trace", "")


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    """A test8 trace with ground truth, and a directory for config files and outputs."""
    out = tmp_path_factory.mktemp("config_sweep")
    assert cli.main(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)]) == 0
    return str(out / "trace.kptr"), out


@st.composite
def config_line(draw):
    key = draw(st.sampled_from(sorted(CONFIG_TEXTS)))
    value = draw(st.sampled_from((*SWEEP_VALUES, CONFIG_TEXTS[key])))
    spelt = key.replace("_", "-") if draw(st.booleans()) else key  # both spellings are keys
    return draw(st.sampled_from([f"{spelt}={value}", f"  {spelt} = {value}  "]))


@st.composite
def config_text(draw):
    """Lines of any command's keys, repeats likely; now and then an unknown
    key, a comment or a blank line."""
    lines = draw(st.lists(config_line(), min_size=1, max_size=6))
    for extra in ("# " + draw(config_line()), "", f"{draw(st.sampled_from(UNKNOWN_KEYS))}=1"):
        if draw(st.integers(0, 3)) == 0:
            lines.insert(draw(st.integers(0, len(lines))), extra)
    return "".join(f"{line}\n" for line in lines)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(SWEEP_ARGS)), text=config_text())
def test_config_file_sweep(sweep_dirs, command, text):
    trace, out = sweep_dirs
    cfg = out / "run.cfg"
    cfg.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*sweep_argv(command, trace, out / "o"), "--config", str(cfg)])
    assert code in DOCUMENTED
    assert not any(line.startswith("warning:") for line in stdout.getvalue().splitlines())
    assert code == cli.EXIT_OK or stderr.getvalue().count("\n") == 1, stderr.getvalue()
