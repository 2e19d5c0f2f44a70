import sys
from pathlib import Path

# the benchmark imports the library from the checkout it sits in
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
