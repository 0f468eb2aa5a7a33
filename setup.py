"""Build hook for the optional compiled RR kernel.

All static metadata lives in ``pyproject.toml``; this file exists solely to
declare ``repro.propagation._rrnative`` (the compiled core of the RR kernel
and the greedy cover update) as an **optional** extension: a missing or
broken compiler downgrades the build to pure Python with a warning instead
of failing it.  The answers are the same either way — the NumPy path draws
the same counter-keyed coins and writes the same bytes.

Two supported flows:

* ``pip install -e .`` — builds the extension if a compiler is present,
  installs fine without one;
* ``python setup.py build_ext --inplace`` — drops the ``.so`` next to
  ``src/repro/propagation/native.py`` so the tier-1
  ``PYTHONPATH=src`` flow (no install at all) picks it up too.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Never fail the whole build over the optional extension.

    ``Extension(optional=True)`` already swallows per-extension compile
    errors; this belt-and-braces subclass also swallows toolchain-level
    failures (no compiler at all), which some setuptools versions raise
    before the per-extension guard is reached.
    """

    def run(self):  # noqa: D102 — see class docstring
        try:
            super().run()
        except Exception as error:  # noqa: BLE001 — degrade, don't die
            self._warn(error)

    def build_extension(self, ext):  # noqa: D102 — see class docstring
        try:
            super().build_extension(ext)
        except Exception as error:  # noqa: BLE001 — degrade, don't die
            self._warn(error)

    @staticmethod
    def _warn(error):
        print(
            "WARNING: building repro.propagation._rrnative failed "
            f"({error}); the RR kernel will run on its NumPy path "
            "(identical results, compiled speed forgone)."
        )


setup(
    ext_modules=[
        Extension(
            "repro.propagation._rrnative",
            sources=["src/repro/propagation/_rrnative.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
