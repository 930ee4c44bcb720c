"""`python -m cep_lab` runs the `cep-lab` command."""

from .cli import main

if __name__ == "__main__":
    main()
