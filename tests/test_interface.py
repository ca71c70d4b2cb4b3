"""The package's public surface: exported names and each subcommand's options."""

import argparse
import importlib
import pkgutil

import pytest

import multiband_alloc
from multiband_alloc import cli

MODULES = ["multiband_alloc"] + [
    f"multiband_alloc.{info.name}" for info in pkgutil.iter_modules(multiband_alloc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# Per subcommand, in --help order: (option, type, default, choices, required).
# argparse reads a missing type as str. The sweep's defaults are None on the
# parser and resolved after its config file is read.
GUARD = 10**6
POWER = ("water_fill", "equal_split")
OPTIONS = {
    "sweep": [
        ("--links", "int", None, None, False),
        ("--subchannels", "int", None, None, False),
        ("--bandwidth", "float", None, None, False),
        ("--noise-psd", "float", None, None, False),
        ("--shadow-prob", "float", None, None, False),
        ("--shadow-atten", "float", None, None, False),
        ("--budgets", "str", None, None, False),
        ("--trials", "int", None, None, False),
        ("--seed", "int", None, None, False),
        ("--strategies", "str", None, None, False),
        ("--out", "str", None, None, False),
        ("--score", "str", None, ("exact", "both"), False),
        ("--workers", "int", None, None, False),
        ("--guard", "int", None, None, False),
        ("--maxsel-power", "str", None, POWER, False),
        ("--config", "str", None, None, False),
    ],
    "dump": [
        ("--links", "int", 2, None, False),
        ("--subchannels", "int", 4, None, False),
        ("--bandwidth", "float", 4.0, None, False),
        ("--noise-psd", "float", 1.0, None, False),
        ("--shadow-prob", "float", 0.02, None, False),
        ("--shadow-atten", "float", 0.0, None, False),
        ("--budget", "float", 1.0, None, False),
        ("--seed", "int", 0, None, False),
        ("--strategy", "str", None, ("high", "low", "maxsel", "opt"), True),
        ("--guard", "int", GUARD, None, False),
        ("--maxsel-power", "str", "water_fill", POWER, False),
        ("--out", "str", None, None, False),
    ],
    "bench": [
        ("--dims", "str", "2:8,2:12,2:16,4:16,8:32", None, False),
        ("--methods", "str", "hungarian,optimal,max_select", None, False),
        ("--reps", "int", 20, None, False),
        ("--seed", "int", 0, None, False),
        ("--guard", "int", GUARD, None, False),
        ("--out", "str", None, None, False),
    ],
}


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    subcommands = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert list(subcommands) == list(OPTIONS)
    for command, expected in OPTIONS.items():
        options = [
            (
                action.option_strings[0],
                (action.type or str).__name__,
                action.default,
                tuple(action.choices) if action.choices else None,
                action.required,
            )
            for action in subcommands[command]._actions
            if action.dest != "help"
        ]
        assert options == expected, command


def test_defaults_and_help_come_from_the_name_tables():
    strategies = cli.FLAGS["strategies"]
    assert strategies.default == "low,high,opt,maxsel"
    assert strategies.help == "comma list from: low,high,opt,maxsel"
    assert cli.FLAGS["methods"].help == "comma list from: hungarian,optimal,max_select"
