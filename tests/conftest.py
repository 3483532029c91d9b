"""The ``--record-pins`` option and the manifest's session checks (``tests/pins.py``)."""

import pytest

from tests import pins

_DESELECTED = pytest.StashKey[bool]()


def pytest_addoption(parser):
    parser.addoption(
        "--record-pins",
        action="store_true",
        help="store the values pin checks see in tests/pins.json instead of comparing "
        "them; the file is written only if every selected test passed",
    )


def pytest_configure(config):
    pins.session = pins.Pins(recording=config.getoption("record_pins"))


def pytest_deselected(items):
    items[0].config.stash[_DESELECTED] = True


def _whole_default_collection(config) -> bool:
    return (
        config.args_source is pytest.Config.ArgsSource.TESTPATHS
        and not config.stash.get(_DESELECTED, False)
        and not (config.option.collectonly or config.option.ignore or config.option.ignore_glob)
    )


def pytest_sessionfinish(session, exitstatus):
    if exitstatus != pytest.ExitCode.OK:
        return
    if pins.session.recording:
        pins.session.save()
    elif _whole_default_collection(session.config):
        unchecked = sorted(set(pins.session.entries) - set(pins.session.checked))
        if unchecked:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED
            reporter = session.config.pluginmanager.get_plugin("terminalreporter")
            reporter.write_line("")
            reporter.write_sep("=", "pins no test checked", red=True)
            for name in unchecked:
                reporter.write_line(f"{name}: check it in a test, or delete the entry")
